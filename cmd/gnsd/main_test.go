package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"locind/internal/gns"
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

// hostileDatagrams are what a replica's socket may receive from anyone: a
// well-formed lookup cut short at every byte (the empty datagram, the kind
// alone and an ID cut short among them), the same with a byte too many, the
// previous wire format, a reply sent to a server with a bool no encoder
// writes, and one datagram past the size limit.
func hostileDatagrams(t *testing.T) [][]byte {
	lookup, err := hex.DecodeString("51" + "0102030405060708" + "0006" + "6c6f6f6b7570" + "0001" + "78" + "0000" + "0000" + "0000")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for cut := range lookup {
		out = append(out, lookup[:cut])
	}
	reply := append([]byte{'R'}, lookup[1:9]...)
	return append(out,
		append(bytes.Clone(lookup), 0),
		[]byte(`{"op":"lookup","name":"x"}`),
		append(reply, 2),
		make([]byte, 9000))
}

// TestServeModeGridRoutesAClientAndSIGTERMExitsClean: every hostile
// datagram sent straight to a replica is answered with CodeBadRequest —
// under the sender's ID wherever nine bytes of a datagram of legal size
// arrived — and counted; after them the grid serve mode prints is still all
// a client needs — cluster.NewClient over the parsed lines commits an
// update, a client of another origin reads it back; the introspection port
// has timed those requests and traced them, and closes a connection stalled
// mid-header — and SIGTERM ends the process with its shutdown line and exit
// 0.
func TestServeModeGridRoutesAClientAndSIGTERMExitsClean(t *testing.T) {
	cmd := gnsd("-shards", "2", "-replicas", "3", "-obs.addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderrPipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill() //nolint:errcheck // a no-op once Wait has returned

	stderr := bufio.NewReader(stderrPipe)
	obsLine, _ := stderr.ReadString('\n')
	_, rest, _ := strings.Cut(obsLine, "gnsd: introspection on ")
	metricsURL, _, ok := strings.Cut(rest, " ")
	if !ok {
		t.Fatalf("first stderr line %q, want the introspection address", obsLine)
	}

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() || sc.Text() != "gnsd: 2 shards x 3 replicas" {
		t.Fatalf("first line %q, want the topology", sc.Text())
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

	replica, err := net.Dial("udp", grid[0][0])
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	hostile := hostileDatagrams(t)
	reply := make([]byte, 1<<16)
	for _, raw := range hostile {
		if _, err := replica.Write(raw); err != nil {
			t.Fatal(err)
		}
		replica.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a failed deadline shows as the read error below
		n, err := replica.Read(reply)
		// A reply is kind, ID, OK, Code, then the strings.
		if err != nil || n < 1+8+1+8 || reply[0] != 'R' {
			t.Fatalf("datagram %x: reply %x, %v", raw, reply[:n], err)
		}
		var wantID uint64
		if len(raw) >= 1+8 && len(raw) <= 8192 { // past gns's size limit a datagram is refused unread
			wantID = binary.BigEndian.Uint64(raw[1:])
		}
		id, okByte, code := binary.BigEndian.Uint64(reply[1:]), reply[9], binary.BigEndian.Uint64(reply[10:])
		if id != wantID || okByte != 0 || gns.Code(code) != gns.CodeBadRequest {
			t.Errorf("datagram %x: reply id %#x ok %d code %d, want id %#x, CodeBadRequest", raw, id, okByte, code, wantID)
		}
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

	resp, err := http.Get(metricsURL)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read to the end already
	if err != nil {
		t.Fatal(err)
	}
	var errorsTotal, timed int
	for _, line := range strings.Split(string(metrics), "\n") {
		if v, ok := strings.CutPrefix(line, "locind_gns_errors_total "); ok {
			errorsTotal, _ = strconv.Atoi(v)
		}
		if v, ok := strings.CutPrefix(line, "locind_gns_request_seconds_count "); ok {
			timed, _ = strconv.Atoi(v)
		}
	}
	if errorsTotal < len(hostile) {
		t.Errorf("locind_gns_errors_total = %d after %d rejected datagrams\n%s", errorsTotal, len(hostile), metrics)
	}
	if timed == 0 {
		t.Errorf("locind_gns_request_seconds has no sample after %d datagrams and a client exchange\n%s", len(hostile), metrics)
	}
	tracesURL := strings.TrimSuffix(metricsURL, "/metrics") + "/debug/traces"
	resp, err = http.Get(tracesURL)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck // read to the end already
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(traces, []byte("gns-serve")) {
		t.Errorf("GET %s: status %d, %v, want 200 with a gns-serve span\n%s", tracesURL, resp.StatusCode, err, traces)
	}

	// A client that never finishes its request header is cut off by the
	// introspection server's header timeout instead of holding the
	// connection open for as long as it likes.
	t.Run("StalledHeaderIsClosed", func(t *testing.T) {
		if testing.Short() {
			t.Skip("waits out the introspection server's header timeout")
		}
		host := strings.TrimPrefix(strings.TrimSuffix(metricsURL, "/metrics"), "http://")
		conn, err := net.Dial("tcp", host)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\n")); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a failed deadline shows as the read error below
		if _, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("connection stalled mid-header still open after 10 s: %v", err)
		}
	})

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() { // drain to EOF so Wait may close the pipe
	}
	lastWords, _ := io.ReadAll(stderr)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gnsd must exit 0 on SIGTERM: %v\n%s", err, lastWords)
	}
	if !strings.Contains(string(lastWords), "gnsd: shutting down") {
		t.Fatalf("no shutdown line on stderr: %q", lastWords)
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
