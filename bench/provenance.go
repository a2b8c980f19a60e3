package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// provenance is stamped on every output the bench produces — the stdout
// table and each bench/out/*.json — so a number can always be traced to the
// seed, machine shape and commit that produced it. Op counts are per
// workload: each result carries the count it was sized for, the count it
// attempted and whether it stopped at the wall ceiling.
type provenance struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"wall_ceiling_s"` // measured wall a run stops at if its op count is not done
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"vcs_revision"`
	Traced     bool    `json:"traced"`
}

// vcsRevision reads the commit the binary was built from. `go run` outside
// a git checkout (the driver's case) has none; say so instead of guessing.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}

func newProvenance(seed int64, seconds float64, traced bool) provenance {
	return provenance{
		Seed:       seed,
		Seconds:    seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Revision:   vcsRevision(),
		Traced:     traced,
	}
}

func (p provenance) String() string {
	return fmt.Sprintf("seed=%d wall_ceiling=%gs GOMAXPROCS=%d nproc=%d %s rev=%s traced=%v",
		p.Seed, p.Seconds, p.GOMAXPROCS, p.NumCPU, p.GoVersion, p.Revision, p.Traced)
}
