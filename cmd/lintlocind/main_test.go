package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"locind/internal/lint"
)

// TestMain lets the test binary stand in for lintlocind: re-executed with
// LINTLOCIND_TEST_MAIN set it runs main() on its arguments, so the tests
// below drive the real flag parsing, package loading and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("LINTLOCIND_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lintlocind runs the command in dir and returns its two streams and exit
// code.
func lintlocind(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "LINTLOCIND_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestListPrintsTheSuiteInOrder: -list is the suite, one line per analyzer
// of lint.All() in its order, and names nothing else.
func TestListPrintsTheSuiteInOrder(t *testing.T) {
	stdout, stderr, code := lintlocind(t, ".", "-list")
	if code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		name, _, _ := strings.Cut(line, " ")
		got = append(got, name)
	}
	want := []string{"determinism", "errflow", "ctxflow", "lockflow", "reach"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("-list names %v, want %v", got, want)
	}
	for i, a := range lint.All() {
		if a.Name != want[i] {
			t.Fatalf("lint.All()[%d] = %s, want %s", i, a.Name, want[i])
		}
	}
}

// TestJSONReportOnACleanPackage: internal/obs is clean, its suppressions
// are accounted per check, and no deleted analyzer appears in the account.
func TestJSONReportOnACleanPackage(t *testing.T) {
	stdout, stderr, code := lintlocind(t, filepath.Join("..", ".."), "-json", "./internal/obs")
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, stdout, stderr)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%s", err, stdout)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("findings on internal/obs: %+v", rep.Findings)
	}
	sum := 0
	for check, n := range rep.SuppressedByCheck {
		if check == "allocflow" || check == "seedflow" || check == "atomicflow" {
			t.Errorf("suppressed_by_check names deleted analyzer %s", check)
		}
		sum += n
	}
	if sum != rep.Suppressed {
		t.Errorf("suppressed = %d but suppressed_by_check sums to %d", rep.Suppressed, sum)
	}
}

// TestStaleDirectivesAreFindings: a //lint:zeroalloc that annotates nothing,
// a //lint:allow naming a deleted analyzer or "all" (the pseudo-check is
// gone) and a //lint:allow reach on a declaration the binary reaches are all
// lintdirective findings, which no directive can suppress, and the exit
// status is 1. A directory holding only
// _test.go files loads as a package with no files; reach passes over it.
func TestStaleDirectivesAreFindings(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"fix.go": `package fix

//lint:zeroalloc floating: a var is not a function
var sink int

func F() int {
	return sink //lint:allow allocflow x
}

func H() {} //lint:allow all x

//lint:allow reach main calls G, so there is nothing to allow
func G() {}
`,
		"cmd/app/main.go":           "package main\n\nimport \"fix\"\n\nfunc main() {\n\tfix.F()\n\tfix.G()\n\tfix.H()\n}\n",
		"testonly/testonly_test.go": "package testonly\n\nimport \"testing\"\n\nfunc TestNothing(t *testing.T) {}\n",
	} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stdout, stderr, code := lintlocind(t, dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s%s", code, stdout, stderr)
	}
	var rep jsonReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v\n%s", err, stdout)
	}
	want := []struct {
		line int
		frag string
	}{{3, "annotates nothing"}, {7, `unknown check "allocflow"`}, {10, `unknown check "all"`}, {12, "covers no finding"}}
	if len(rep.Findings) != len(want) {
		t.Fatalf("findings %+v, want %d", rep.Findings, len(want))
	}
	for i, w := range want {
		f := rep.Findings[i]
		if f.Check != "lintdirective" || f.Line != w.line || !strings.Contains(f.Message, w.frag) {
			t.Errorf("finding %d = %+v, want lintdirective at line %d mentioning %q", i, f, w.line, w.frag)
		}
	}
}
