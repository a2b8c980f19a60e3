package lint_test

import (
	"testing"

	"locind/internal/lint"
)

func TestDeterminism(t *testing.T) {
	runFixtures(t, "testdata/determinism", lint.Determinism,
		"locind/internal/simfix", "locind/internal/simobs", "example.com/cmdfix",
		"locind/internal/obs")
}
