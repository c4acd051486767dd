//go:build !linux

// Package guardpage hands tests a slice that ends flush against an
// unreadable page, so a kernel that reads or writes one element past the end
// faults instead of passing. Off linux it can only end the slice at the end
// of its allocation.
package guardpage

// Guarded reports whether Alloc's slices really end at a guard page.
const Guarded = false

// Alloc returns a zeroed slice of n elements with no spare capacity.
func Alloc(n int) (s []float64, free func()) {
	return make([]float64, n), func() {}
}
