package lint_test

import (
	"testing"

	"locind/internal/lint"
)

func TestLockflow(t *testing.T) {
	runFixtures(t, "testdata/lockflow", lint.Lockflow,
		"locind/internal/lockfix", "locind/internal/lockdirty")
}
