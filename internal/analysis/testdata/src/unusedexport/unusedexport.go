// Package unusedexport is the unusedexport analyzer's fixture.
package unusedexport

import "fmt"

// Used has a non-test caller below.
func Used() int { return 1 }

// TestOnly is called only from unusedexport_test.go, which the loader
// never reads.
func TestOnly() int { return 2 } // want `exported func TestOnly has no non-test use`

// Dead has no caller at all.
var Dead = 3 // want `exported var Dead has no non-test use`

// Kept is unused but allowed with a reason.
//
//scrublint:allow unusedexport a fixture for the directive
const Kept = 4

// Shape is an interface the package mentions.
type Shape interface{ Area() float64 }

// Square satisfies Shape and fmt.Stringer.
type Square struct{ side float64 }

// Area implements Shape: no direct call, but Shape declares it.
func (s Square) Area() float64 { return s.side * s.side }

// String is found by fmt at run time.
func (s Square) String() string { return fmt.Sprint(s.side) }

// Perimeter is a method nothing calls and no interface declares.
func (s Square) Perimeter() float64 { return 4 * s.side } // want `exported method Square.Perimeter has no non-test use`

// Box is a generic container.
type Box[T any] struct{ v T }

// Get is used only through an instantiation, Box[int].
func (b Box[T]) Get() T { return b.v }

// Wrap is a generic func used only through an instantiation.
func Wrap[T any](v T) Box[T] { return Box[T]{v: v} }

// Unwrapped is generic and unused.
func Unwrapped[T any](v T) T { return v } // want `exported func Unwrapped has no non-test use`

func use() float64 {
	var sh Shape = Square{side: Float(Used())}
	return sh.Area() + Float(Wrap[int](2).Get())
}

// Float converts for use.
func Float(n int) float64 { return float64(n) }

var _ = use
