package lint_test

import (
	"testing"

	"locind/internal/lint"
)

func TestErrflow(t *testing.T) {
	runFixtures(t, "testdata/errflow", lint.Errflow,
		"locind/internal/exptfix", "locind/internal/obsfix")
}
