package main

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"locind/internal/obs"
)

// TestMain lets the test binary stand in for obsreport: re-executed with
// OBSREPORT_TEST_MAIN set it runs main() on its arguments, so the tests
// below drive the real flag parsing, input modes and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("OBSREPORT_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// obsreport runs the command on stdin and returns its two streams and exit
// code.
func obsreport(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "OBSREPORT_TEST_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// dump is a two-series timeseries dump with one bound check whose verdict is
// ok; the second series holds null samples (NaN on the wire) and ends on
// one, so its last value has no finite rendering.
func dump(ok bool) string {
	verdict, detail := "true", ""
	if !ok {
		verdict, detail = "false", `,"detail":"dropped from 3 to 2 at index 2"`
	}
	return `{"interval_seconds":0.5,"ticks":4,"series":[
 {"key":"ops_total","name":"ops_total","samples":[1,2,3,4]},
 {"key":"queue_entries{shard=\"0\"}","name":"queue_entries","labels":{"shard":"0"},"samples":[5,null,7,null]}
],"checks":[{"name":"ops-monotone","series":"ops_total","kind":"monotone","ok":` + verdict + detail + `}]}`
}

// writeDump puts body in a fresh file and returns its path.
func writeDump(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "series.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPassingDumpPrintsTheDigest: every check passed, so the exit status is
// 0, stderr is empty, and stdout is the dump's markdown digest — the check
// table plus one sparkline row per series.
func TestPassingDumpPrintsTheDigest(t *testing.T) {
	stdout, stderr, code := obsreport(t, "", writeDump(t, dump(true)))
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q; want 0 and nothing", code, stderr)
	}
	for _, want := range []string{
		"- ticks: 4\n",
		"- nominal interval: 0.5s\n",
		"| check | series | kind | verdict | detail |\n",
		"| ops-monotone | `ops_total` | monotone | ✅ ok |  |\n",
		"| `ops_total` | 4 | 4 | 1 | 4 | ▁▃▅█ |\n",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("digest lacks %q:\n%s", want, stdout)
		}
	}
	_, series, _ := strings.Cut(stdout, "## Series\n")
	if rows := strings.Count(series, "\n| `"); rows != 2 {
		t.Errorf("%d series rows, want one per series (2):\n%s", rows, series)
	}
}

// TestFailingCheckExitsOne: the digest still prints, the failed check is
// named on stderr, and the exit status is 1 so a CI step can gate on it.
func TestFailingCheckExitsOne(t *testing.T) {
	stdout, stderr, code := obsreport(t, "", writeDump(t, dump(false)))
	want := "obsreport: check ops-monotone (monotone on ops_total) FAILED: dropped from 3 to 2 at index 2\n"
	if code != 1 || stderr != want {
		t.Fatalf("exit %d, stderr %q; want 1 and %q", code, stderr, want)
	}
	if !strings.Contains(stdout, "| ops-monotone | `ops_total` | monotone | ❌ FAIL | dropped from 3 to 2 at index 2 |\n") {
		t.Errorf("digest lacks the failed verdict row:\n%s", stdout)
	}
}

// TestUnreadableInputExitsTwo: malformed JSON, a missing file and a missing
// argument are each one diagnostic on stderr and exit 2, with no digest.
func TestUnreadableInputExitsTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"malformed": {writeDump(t, `{"ticks": 3, "series": [`)},
		"missing":   {filepath.Join(t.TempDir(), "no-such-dump.json")},
		"no args":   {},
		"two args":  {"a.json", "b.json"},
	} {
		stdout, stderr, code := obsreport(t, "", args...)
		if code != 2 || stdout != "" || stderr == "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want a diagnostic and exit 2", name, code, stdout, stderr)
		}
	}
	if _, stderr, _ := obsreport(t, ""); !strings.HasPrefix(stderr, "usage: obsreport ") {
		t.Errorf("no-argument stderr = %q, want the usage line", stderr)
	}
}

// TestInputModesAndOutputFileAgree: "-" reads the dump from stdin, an http
// URL scrapes it, and -o FILE writes the bytes stdout would have carried.
func TestInputModesAndOutputFileAgree(t *testing.T) {
	body := dump(true)
	want, _, code := obsreport(t, "", writeDump(t, body))
	if code != 0 || want == "" {
		t.Fatalf("file input: exit %d, stdout %q", code, want)
	}
	if got, stderr, code := obsreport(t, body, "-"); code != 0 || got != want {
		t.Errorf("stdin input: exit %d, stderr %q, stdout differs from file input:\n%s", code, stderr, got)
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/timeseries" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte(body))
	}))
	defer srv.Close()
	if got, stderr, code := obsreport(t, "", srv.URL+"/debug/timeseries"); code != 0 || got != want {
		t.Errorf("URL input: exit %d, stderr %q, stdout differs from file input:\n%s", code, stderr, got)
	}
	if _, stderr, code := obsreport(t, "", srv.URL+"/nowhere"); code != 2 || !strings.Contains(stderr, "404") {
		t.Errorf("URL answering 404: exit %d, stderr %q; want 2 naming the status", code, stderr)
	}

	out := filepath.Join(t.TempDir(), "report.md")
	stdout, stderr, code := obsreport(t, body, "-o", out, "-")
	if code != 0 || stdout != "" || stderr != "" {
		t.Fatalf("-o: exit %d, stdout %q, stderr %q; want 0 and both empty", code, stdout, stderr)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("-o file differs from stdout:\n%s\nwant:\n%s", got, want)
	}
}

// TestNullSampleIsNaNAndRendersAsAGap: a null sample parses as NaN, writes
// back as null, and renders as a gap — "—" for a non-finite last value and
// "·" in the sparkline.
func TestNullSampleIsNaNAndRendersAsAGap(t *testing.T) {
	d, err := obs.ParseDump([]byte(dump(true)))
	if err != nil {
		t.Fatal(err)
	}
	q := d.Series[1].Samples
	if len(q) != 4 || !math.IsNaN(float64(q[1])) || !math.IsNaN(float64(q[3])) {
		t.Fatalf("samples = %v, want NaN at 1 and 3", q)
	}
	again, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(again, []byte("null")); n != 2 {
		t.Errorf("re-encoded dump holds %d nulls, want 2:\n%s", n, again)
	}

	stdout, _, code := obsreport(t, "", writeDump(t, dump(true)))
	if want := "| `queue_entries{shard=\"0\"}` | 4 | — | 5 | 7 | ▁·█· |\n"; code != 0 || !strings.Contains(stdout, want) {
		t.Errorf("exit %d; digest lacks %q:\n%s", code, want, stdout)
	}
}
