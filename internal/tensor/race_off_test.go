//go:build !race

package tensor_test

// raceEnabled gates timing assertions.
const raceEnabled = false
