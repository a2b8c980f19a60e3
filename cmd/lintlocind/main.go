// Command lintlocind runs this repository's custom static analyzers
// (internal/lint) over the named packages and fails on any finding.
//
// Usage:
//
//	go run ./cmd/lintlocind [flags] [packages]
//
// With no packages, ./... is analyzed. Flags:
//
//	-json          emit findings as a JSON array on stdout
//	-out FILE      also write the JSON report to FILE (for CI artifacts)
//	-list          print the analyzers and exit
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. Suppress a
// deliberate violation with a `//lint:allow <check> <reason>` comment (see
// internal/lint/allow.go for file- and package-scope forms).
//
//lint:file-allow errflow diagnostics go to stdout/stderr; a failed print has nowhere better to be reported
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"locind/internal/lint"
)

type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// jsonReport is the full machine-readable output: surviving findings plus
// the //lint:allow suppression accounting, so CI artifacts show not only
// that the tree is clean but how many findings are being waved through.
type jsonReport struct {
	Findings          []jsonFinding  `json:"findings"`
	Suppressed        int            `json:"suppressed"`
	SuppressedByCheck map[string]int `json:"suppressed_by_check,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("lintlocind", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit findings as JSON on stdout")
	outFile := fs.String("out", "", "also write the JSON report to this file")
	list := fs.Bool("list", false, "print the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := &lint.Loader{}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loadFailed := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "lintlocind: %s: %v\n", pkg.Path, terr)
			loadFailed = true
		}
	}
	if loadFailed {
		return 2
	}

	rep, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	findings := make([]jsonFinding, len(rep.Diags))
	for i, d := range rep.Diags {
		findings[i] = jsonFinding{
			File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
			Check: d.Check, Message: d.Message,
		}
	}
	report := jsonReport{
		Findings:          findings,
		Suppressed:        rep.Suppressed,
		SuppressedByCheck: rep.SuppressedByCheck,
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "lintlocind: writing %s: %v\n", *outFile, err)
			return 2
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range rep.Diags {
			fmt.Fprintln(stdout, d)
		}
		if rep.Suppressed > 0 {
			fmt.Fprintf(stderr, "lintlocind: %d finding(s) suppressed by //lint:allow\n", rep.Suppressed)
		}
	}
	if len(rep.Diags) > 0 {
		fmt.Fprintf(stderr, "lintlocind: %d finding(s)\n", len(rep.Diags))
		return 1
	}
	return 0
}
