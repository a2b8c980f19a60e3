// Package obsfix is the errflow golden fixture for instrumented code: a
// progress or trace-hop line written to a real file can fail, so the
// discarded Fprintf error fires.
package obsfix

import (
	"fmt"
	"os"

	"locind/internal/obs"
)

// Persist writes a progress line to a real file, which can fail.
func Persist(f *os.File, done, total int) {
	fmt.Fprintf(f, "progress %d/%d\n", done, total) // want `fmt\.Fprintf returns an error that is discarded here`
}

// PersistHop writes an incoming trace context — the cross-process
// propagation idiom — to a real file: the error matters.
func PersistHop(f *os.File, tc obs.TraceContext) {
	fmt.Fprintf(f, "hop trace=%s\n", tc.Encode()) // want `fmt\.Fprintf returns an error that is discarded here`
}
