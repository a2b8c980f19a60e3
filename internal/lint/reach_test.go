package lint_test

import (
	"testing"

	"locind/internal/lint"
	"locind/internal/lint/linttest"
)

func TestReach(t *testing.T) {
	linttest.Run(t, "testdata/reach", lint.Reach,
		"locind/cmd/reachcmd", "locind/internal/reachfix", "locind/internal/reachorphan")
}
