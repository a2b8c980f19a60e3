package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for nomadd: re-executed with
// NOMADD_TEST_MAIN set it runs main() on its arguments, so the tests below
// drive the real flag parsing, signal handling and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("NOMADD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func nomadd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "NOMADD_TEST_MAIN=1")
	return cmd
}

// TestDefaultModeLandsTheAgentFleetsRecords: start, replay, clean exit. The
// record and device counts are what the goroutine-per-device agent fleet
// printed for this seed before the engine took the mode over (the engine
// package's TestEngineEquivalentToAgents holds the two to the same streams
// in general); the digest pins every stored record.
func TestDefaultModeLandsTheAgentFleetsRecords(t *testing.T) {
	out, err := nomadd("-users", "40", "-days", "5", "-seed", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("nomadd: %v\n%s", err, out)
	}
	for _, want := range []string{
		"nomadd: fleet of 40 devices replayed 5 days\n",
		"nomadd: 1154 records uploaded, 40 devices in store\n",
		"nomadd: store holds 1154 records in 482 batches, digest 26a0fe5337210c88\n",
		"nomadd: first batch uploaded, from dev-275fcc4507d5ca7e\n" +
			"  dev-275fcc4507d5ca7e   t=   0.00h 0.141.40.220    wifi\n" +
			"nomadd: dev-275fcc4507d5ca7e in store: 18 records (15 wifi, 3 cellular) in 15 batches, 13 moves, t=0.00h..112.67h\n",
		"  locind_nomad_engine_entries_uploaded_total 1154\n",
		"  locind_reliable_giveups_total{subsystem=\"nomad\"} 0\n",
	} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("output lacks %q", want)
		}
	}
	if t.Failed() {
		t.Logf("output:\n%s", out)
	}
}

func TestSoakQuickPrintsItsThreeOKLines(t *testing.T) {
	out, err := nomadd("-soak.quick", "-seed", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("nomadd -soak.quick: %v\n%s", err, out)
	}
	for _, check := range []string{"soak: memory flat:", "soak: queue flat:", "soak: queue drained:"} {
		ok := false
		for _, ln := range strings.Split(string(out), "\n") {
			ok = ok || (strings.HasPrefix(ln, check) && strings.HasSuffix(ln, " OK"))
		}
		if !ok {
			t.Errorf("no %q ... OK line", check)
		}
	}
	if !bytes.Contains(out, []byte("nomadd: final metrics snapshot:")) {
		t.Error("no final metrics snapshot")
	}
	// The stored fleet at this seed, whatever the fault interleaving: a
	// change that moves it moves the records the soak uploads.
	const digest = "soak: digest=e3b30c97859afe57 records=25394 batches=9920 events=27394 devices=2000 days=2\n"
	if !bytes.Contains(out, []byte(digest)) {
		t.Errorf("no line %q", digest)
	}
	if t.Failed() {
		t.Logf("output:\n%s", out)
	}
}

// TestSIGTERMMidRunDrainsAndExitsClean: a fleet far too large to finish is
// interrupted once its backend is up; the process must stop at the next
// batch boundary, say so, print the closing snapshot and exit 0.
func TestSIGTERMMidRunDrainsAndExitsClean(t *testing.T) {
	cmd := nomadd("-users", "1500", "-days", "30")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // a no-op once Wait has returned
	var out strings.Builder
	sc := bufio.NewScanner(stdout)
	signalled := false
	for sc.Scan() {
		out.WriteString(sc.Text() + "\n")
		if !signalled && strings.Contains(sc.Text(), "backend listening") {
			time.Sleep(100 * time.Millisecond) // let some uploads through
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			signalled = true
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("interrupted nomadd must exit 0: %v\n%s", err, out.String())
	}
	got := out.String()
	if strings.Contains(got, "records uploaded") {
		t.Fatalf("the run finished before the signal; the test proved nothing:\n%s", got)
	}
	snapshot := strings.Index(got, "nomadd: final metrics snapshot:")
	interrupted := strings.Index(got, "nomadd: interrupted; drained and shut down")
	if snapshot < 0 || interrupted < snapshot {
		t.Fatalf("want the final snapshot, then the interrupted line:\n%s", got)
	}
	if !strings.Contains(got[snapshot:], "locind_nomad_engine_entries_uploaded_total") {
		t.Fatalf("final snapshot lacks the engine families:\n%s", got)
	}
}
