// Package reachorphan is imported by nothing: one finding at the package
// clause stands for every declaration in it.
package reachorphan // want `package locind/internal/reachorphan is linked by no binary`

func Anything() {}
