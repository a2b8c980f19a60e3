package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"locind/internal/asgraph"
	"locind/internal/bgp"
	"locind/internal/netaddr"
)

// TestMain lets the test binary stand in for ribtool: re-executed with
// RIBTOOL_TEST_MAIN set it runs main() on its arguments, so the tests below
// drive the real argument checks and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("RIBTOOL_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ribtool runs the command and returns its two streams and exit code.
func ribtool(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RIBTOOL_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestBadInvocationIsUsageBeforeTheDumpIsOpened: an unknown verb (the removed
// `serve` among them) or a wrong argument count prints the usage line and
// exits 2. The dump path does not exist, so opening it first would exit 1
// with the open error instead.
func TestBadInvocationIsUsageBeforeTheDumpIsOpened(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dump.txt")
	for _, args := range [][]string{
		{},
		{"stats"},
		{"stats", missing, "extra", "junk"},
		{"best", missing},
		{"best", missing, "10.0.0.1", "extra"},
		{"serve", missing, "1"},
		{"frob", missing},
	} {
		stdout, stderr, code := ribtool(t, args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, "usage: ribtool ") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("ribtool %v: exit %d, stdout %q, stderr %q; want the usage line and exit 2", args, code, stdout, stderr)
		}
	}
}

// TestDumpWithoutRoutesIsAnError: an empty or comment-only dump has nothing
// to report on; `stats` used to print "routes: 0 (NaN per prefix)" and exit 0.
func TestDumpWithoutRoutesIsAnError(t *testing.T) {
	for name, body := range map[string]string{
		"empty.txt":    "",
		"comments.txt": "# locind-rib v1 name=x prefixes=0 routes=0\n\n# nothing else\n",
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"stats", path}, {"best", path, "10.0.0.1"}} {
			stdout, stderr, code := ribtool(t, args...)
			if want := "ribtool: " + path + ": no routes in dump\n"; code != 1 || stdout != "" || stderr != want {
				t.Errorf("ribtool %v: exit %d, stdout %q, stderr %q; want %q and exit 1", args, code, stdout, stderr, want)
			}
		}
	}
}

// capture returns what fn prints to stdout.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	w.Close()
	return string(<-done)
}

// collectorDump builds a collector on a quick-sized internet and writes its
// RIB dump to a file, returning the collector, the address plan and the
// dump's path.
func collectorDump(t *testing.T) (*bgp.Collector, *asgraph.Graph, *bgp.PrefixTable, string) {
	t.Helper()
	cfg := asgraph.DefaultSynthConfig()
	cfg.Tier2 = 80
	cfg.Stubs = 700
	g, err := asgraph.Synthesize(cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := bgp.NewPrefixTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := bgp.BuildCollectors(g, pt, bgp.RouteViewsSpecs()[:1], rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	c := cols[0]
	path := filepath.Join(t.TempDir(), "rib_"+c.Name+".txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bgp.WriteRIB(f, c.Name, c.RIB); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return c, g, pt, path
}

// TestStatsAndBestAgreeWithTheCollector writes a batch-built collector's
// dump, loads it the way the tool does (ReadRIB → NewRIB → DeriveFIB) and
// requires `stats` and `best` to report what the collector's own RIB and
// fused-built FIB hold.
func TestStatsAndBestAgreeWithTheCollector(t *testing.T) {
	c, g, pt, path := collectorDump(t)
	rib, err := loadRIB(path)
	if err != nil {
		t.Fatal(err)
	}

	share := map[int]int{}
	c.FIB.Walk(func(_ netaddr.Prefix, rt bgp.Route) bool {
		share[rt.NextHop]++
		return true
	})
	top, topN := -1, 0
	for port, n := range share {
		if n > topN || n == topN && port < top {
			top, topN = port, n
		}
	}
	out := capture(t, func() { stats(rib) })
	for _, want := range []string{
		fmt.Sprintf("prefixes:        %d\n", c.RIB.NumPrefixes()),
		fmt.Sprintf("routes:          %d (", c.RIB.NumRoutes()),
		fmt.Sprintf("next-hop degree: %d\n", c.FIB.NextHopDegree()),
		fmt.Sprintf("top ports by prefix share:\n  AS%-6d %6d prefixes", top, topN),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output lacks %q:\n%s", want, out)
		}
	}

	for as := 0; as < g.N(); as += 97 {
		a := pt.AddrIn(as, 9)
		want, ok := c.FIB.RouteFor(a)
		if !ok {
			t.Fatalf("collector has no route for %v", a)
		}
		if got := capture(t, func() { best(rib, a.String()) }); got != want.String()+"\n" {
			t.Errorf("best %v = %q, the collector selects %q", a, got, want.String())
		}
	}
}

// TestInterleavedDumpReadsTheSame deals a collector dump's route lines out
// across prefixes at random, each prefix's lines kept in their order, and
// requires the dealt dump to load into a RIB that writes the same bytes, and
// `stats` and `best` to print what they print for the dump as written.
func TestInterleavedDumpReadsTheSame(t *testing.T) {
	_, g, pt, path := collectorDump(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	rows := map[string][]string{}
	var live []string
	for _, l := range lines[1:] {
		p, _, _ := strings.Cut(l, "|")
		if rows[p] == nil {
			live = append(live, p)
		}
		rows[p] = append(rows[p], l)
	}
	dealt := []string{lines[0]}
	rng := rand.New(rand.NewSource(1))
	for len(live) > 0 {
		i := rng.Intn(len(live))
		p := live[i]
		dealt = append(dealt, rows[p][0])
		if rows[p] = rows[p][1:]; len(rows[p]) == 0 {
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	breaks := 0
	for i := 2; i < len(dealt); i++ {
		if a, _, _ := strings.Cut(dealt[i-1], "|"); !strings.HasPrefix(dealt[i], a+"|") {
			breaks++
		}
	}
	if breaks < len(lines)/2 {
		t.Fatalf("dealing %d lines left %d prefix changes between neighbours", len(lines)-1, breaks)
	}
	dealtPath := filepath.Join(t.TempDir(), "dealt.txt")
	if err := os.WriteFile(dealtPath, []byte(strings.Join(dealt, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	written, err := loadRIB(path)
	if err != nil {
		t.Fatal(err)
	}
	read, err := loadRIB(dealtPath)
	if err != nil {
		t.Fatal(err)
	}
	var wb, rb bytes.Buffer
	if err := bgp.WriteRIB(&wb, "x", written); err != nil {
		t.Fatal(err)
	}
	if err := bgp.WriteRIB(&rb, "x", read); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), rb.Bytes()) {
		t.Fatal("the dealt dump writes other bytes than the dump as written")
	}
	if w, r := capture(t, func() { stats(written) }), capture(t, func() { stats(read) }); w != r {
		t.Fatalf("stats of the dealt dump:\n%s\nof the dump as written:\n%s", r, w)
	}
	for as := 0; as < g.N(); as += 97 {
		a := pt.AddrIn(as, 9).String()
		if w, r := capture(t, func() { best(written, a) }), capture(t, func() { best(read, a) }); w != r {
			t.Errorf("best %s: %q for the dealt dump, %q for the dump as written", a, r, w)
		}
	}
}
