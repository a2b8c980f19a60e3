package lint_test

import (
	"testing"

	"locind/internal/lint"
)

func TestCtxflow(t *testing.T) {
	runFixtures(t, "testdata/ctxflow", lint.Ctxflow,
		"locind/internal/gns", "locind/internal/otherfix", "locind/internal/reliable")
}
