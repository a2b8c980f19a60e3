// Package cmdfix stands in for a cmd/ binary: outside locind/internal/ the
// wall-clock rule does not apply (a CLI may timestamp its output).
package cmdfix

import "time"

// Stamp may read the host clock: this is not a simulation package.
func Stamp() int64 { return time.Now().UnixNano() }
