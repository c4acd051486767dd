//go:build race

package tensor_test

// raceEnabled gates timing assertions: the race detector slows the two
// dtypes unevenly.
const raceEnabled = true
