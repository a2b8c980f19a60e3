// Command reachcmd is the one binary of the reach fixture: what it calls,
// and what that calls, is the reachable part of reachfix.
package main

import (
	"fmt"

	"locind/internal/reachfix"
)

func main() {
	fmt.Println(reachfix.Used([]string{"bb", "a"}), reachfix.Total([]reachfix.Shape{reachfix.Square{Side: 2}}))
	if err := reachfix.Find("x"); err != nil {
		fmt.Println(err)
	}
	var s reachfix.Set[int]
	s.Add(1)
	reachfix.CalledAndAllowed()
}

func unusedInMain() {} // want `unusedInMain is reachable from no binary`
