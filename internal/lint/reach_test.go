package lint_test

import (
	"testing"

	"locind/internal/lint"
)

func TestReach(t *testing.T) {
	runFixtures(t, "testdata/reach", lint.Reach,
		"locind/cmd/reachcmd", "locind/examples/reachex", "locind/internal/reachfix", "locind/internal/reachorphan")
}
