// Command reachex is an example of the reach fixture: it calls
// reachfix.OnlyExamples, which no other binary reaches. An example is not a
// root, so that call keeps nothing alive, and the example itself is not
// judged.
package main

import "locind/internal/reachfix"

func main() { reachfix.OnlyExamples() }

func unusedInExample() {}
