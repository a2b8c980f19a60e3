package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for vantaged: re-executed with
// VANTAGED_TEST_MAIN set it runs main() on its arguments, so the tests below
// drive the real flag parsing, loopback campaign and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("VANTAGED_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// vantaged runs the command and returns its two streams and exit code.
func vantaged(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VANTAGED_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestSmallCampaignReconstructsTheTruth: four nodes over real loopback TCP
// report every hourly resolution of one day, and the controller's merged
// sets match the CDN ground truth at every checked point.
func TestSmallCampaignReconstructsTheTruth(t *testing.T) {
	stdout, stderr, code := vantaged(t, "-nodes", "4", "-domains", "3", "-days", "1")
	if code != 0 || !strings.Contains(stdout, "merged-vs-truth mismatches: 0 ") {
		t.Fatalf("exit %d, want 0 with no mismatches\nstdout:\n%sstderr:\n%s", code, stdout, stderr)
	}
}

// TestImpossibleCampaignIsAnErrorLineNotAPanic: a campaign with no nodes or
// no days is refused with one "vantaged:" line and exit 1. `-days 0` used to
// run, check hour -1 and fail with "union reconstruction failed at 576
// points"; it is now refused before anything is synthesized or printed.
func TestImpossibleCampaignIsAnErrorLineNotAPanic(t *testing.T) {
	for _, c := range []struct {
		args    []string
		upFront bool // refused before anything reaches stdout
	}{
		{[]string{"-nodes", "0"}, false},
		{[]string{"-days", "0"}, true},
		{[]string{"-days", "-3"}, true},
	} {
		stdout, stderr, code := vantaged(t, c.args...)
		if code != 1 || !strings.HasPrefix(stderr, "vantaged: ") || strings.Count(stderr, "\n") != 1 ||
			strings.Contains(stderr, "panic") || strings.Contains(stderr, "reconstruction") {
			t.Errorf("vantaged %v: exit %d, stderr %q; want one vantaged: error line and exit 1", c.args, code, stderr)
		}
		if c.upFront && stdout != "" {
			t.Errorf("vantaged %v printed %q before refusing", c.args, stdout)
		}
	}
}
