// Package reachfix exercises the reach analyzer: every declaration below is
// either reached from locind/cmd/reachcmd by the route its comment names, or
// carries a want.
package reachfix

import (
	"errors"
	"fmt"
	"sort"
)

// Used is called from main. It reaches byLen only by converting to it:
// sort.Sort calls the three methods where the walk cannot see.
func Used(words []string) string {
	sort.Sort(byLen(words))
	var r Reporter
	r.Reached()
	return fmt.Sprint(words, table, registered)
}

func unreachable() {} // want `unreachable is reachable from no binary`

// Reporter is reached; one of its methods is not.
type Reporter struct{}

func (Reporter) Reached() {}

func (Reporter) Orphan() {} // want `Orphan is reachable from no binary`

// byLen is kept alive method by method by sort.Interface.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Shape is a module interface: Total calls Area through it, which reaches
// the Area of every reached type that implements Shape — Square, which main
// names — and of no other.
type Shape interface{ Area() float64 }

func Total(shapes []Shape) (sum float64) {
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is called through no interface and by nobody.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `Perimeter is reachable from no binary`

// Circle implements Shape, but nothing names it: the type's finding covers
// its method.
type Circle struct{} // want `Circle is reachable from no binary`

func (Circle) Area() float64 { return 3 }

// notFound is kept alive by the universe's error, and wrapped's Unwrap by
// the unnamed interface errors.Is asserts.
type notFound struct{ name string }

func (e notFound) Error() string { return e.name + " not found" }

type wrapped struct{ err error }

func (w wrapped) Error() string { return w.err.Error() }
func (w wrapped) Unwrap() error { return w.err }

// Detail has the name of nothing any interface asks for.
func (w wrapped) Detail() string { return "" } // want `Detail is reachable from no binary`

var errSentinel = errors.New("sentinel")

func Find(name string) error {
	if err := error(wrapped{notFound{name}}); !errors.Is(err, errSentinel) {
		return err
	}
	return nil
}

// Set is generic: Add is called on an instantiation, Drop is not, and Len
// alone does not make a sort.Interface.
type Set[T comparable] struct{ m map[T]bool }

func (s *Set[T]) Add(v T) {
	if s.m == nil {
		s.m = map[T]bool{}
	}
	s.m[v] = true
}

func (s *Set[T]) Drop(v T) { delete(s.m, v) } // want `Drop is reachable from no binary`

func (s *Set[T]) Len() int { return len(s.m) } // want `Len is reachable from no binary`

// build is named only by table's initialiser and install only by a blank
// variable's: both run at start-up, whether or not anything reads the result.
func build() []int { return []int{1, 2, 3} }

var table = build()

func install() bool { return true }

var _ = install()

var unusedVar = build() // want `unusedVar is reachable from no binary`

const unusedConst = 7 // want `unusedConst is reachable from no binary`

var registered []string

func init() { register("reachfix") }

func register(name string) { registered = append(registered, name) }

// OnlyExamples is called from locind/examples/reachex alone: an example
// teaches what a binary keeps, and keeps nothing itself.
func OnlyExamples() {} // want `OnlyExamples is reachable from no binary`

// onlyTests is called from reachfix_test.go alone, by an init and by a test:
// neither is a root.
func onlyTests() {} // want `onlyTests is reachable from no binary`

// KeptForTests stands for a symbol another package's test calls: the
// directive suppresses its finding and makes it a root, so keptHelper needs
// none of its own.
//
//lint:allow reach a sibling package's test is the only caller
func KeptForTests() { keptHelper() }

func keptHelper() {}

//lint:allow reach main calls it, so this directive is stale // want `//lint:allow reach covers no finding`
func CalledAndAllowed() {}
