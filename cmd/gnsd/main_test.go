package main

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"

	"locind/internal/gns/cluster"
	"locind/internal/netaddr"
)

// TestMain lets the test binary stand in for gnsd: re-executed with
// GNSD_TEST_MAIN set it runs main() on its arguments, so the tests below
// drive the real flag parsing, signal handling and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("GNSD_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func gnsd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GNSD_TEST_MAIN=1")
	return cmd
}

// TestServeModeGridRoutesAClientAndSIGTERMExitsClean: the grid serve mode
// prints is all a client needs — cluster.NewClient over the parsed lines
// commits an update, a client of another origin reads it back — and SIGTERM
// ends the process with its shutdown line and exit 0.
func TestServeModeGridRoutesAClientAndSIGTERMExitsClean(t *testing.T) {
	cmd := gnsd("-shards", "2", "-replicas", "3")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // a no-op once Wait has returned

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() || sc.Text() != "gnsd: 2 shards x 3 replicas" {
		t.Fatalf("first line %q, want the topology (stderr: %s)", sc.Text(), stderr.String())
	}
	var grid [][]string
	for len(grid) < 2 && sc.Scan() {
		_, row, ok := strings.Cut(sc.Text(), ": ")
		if !ok || !strings.HasPrefix(sc.Text(), "shard ") {
			t.Fatalf("grid line %q, want \"shard N: addr addr addr\"", sc.Text())
		}
		grid = append(grid, strings.Fields(row))
	}
	if len(grid) != 2 || len(grid[0]) != 3 || len(grid[1]) != 3 {
		t.Fatalf("parsed grid %v, want 2 shards of 3 replicas", grid)
	}

	ctx := context.Background()
	want := netaddr.MustParseAddr("10.1.2.3")
	writer := cluster.NewClient(grid, cluster.ClientConfig{Origin: 1})
	defer writer.Close()
	if _, err := writer.Update(ctx, "dave.phone", []netaddr.Addr{want}); err != nil {
		t.Fatalf("update through the printed grid: %v", err)
	}
	reader := cluster.NewClient(grid, cluster.ClientConfig{Origin: 2})
	defer reader.Close()
	rec, err := reader.Lookup(ctx, "dave.phone")
	if err != nil || rec.Stale || len(rec.Addrs) != 1 || rec.Addrs[0] != want {
		t.Fatalf("second-origin lookup: %+v, %v", rec, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() { // drain to EOF so Wait may close the pipe
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gnsd must exit 0 on SIGTERM: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "gnsd: shutting down") {
		t.Fatalf("no shutdown line on stderr: %q", stderr.String())
	}
}

// TestZeroShardsIsAnErrorLineNotAPanic: a topology no cluster can have is
// refused with one "gnsd:" line and a non-zero exit.
func TestZeroShardsIsAnErrorLineNotAPanic(t *testing.T) {
	out, err := gnsd("-shards", "0").CombinedOutput()
	if err == nil {
		t.Fatalf("gnsd -shards 0 exited 0:\n%s", out)
	}
	if !bytes.HasPrefix(out, []byte("gnsd: ")) || bytes.Count(out, []byte("\n")) != 1 || bytes.Contains(out, []byte("panic")) {
		t.Fatalf("want one gnsd: error line, got:\n%s", out)
	}
}
