// Package guardpage hands tests a slice that ends flush against an
// unreadable page, so a kernel that reads or writes one element past the end
// faults instead of passing.
package guardpage

import (
	"syscall"
	"unsafe"
)

// Guarded reports whether Alloc's slices really end at a guard page.
const Guarded = true

// Alloc returns a zeroed slice of n elements whose last element is the last
// before a PROT_NONE page, and the function that unmaps it.
func Alloc(n int) (s []float64, free func()) {
	page := syscall.Getpagesize()
	size := n * int(unsafe.Sizeof(float64(0)))
	data := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("guardpage: mmap: " + err.Error())
	}
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		panic("guardpage: mprotect: " + err.Error())
	}
	free = func() { _ = syscall.Munmap(mem) } // a test helper: nothing to do about a failed unmap
	if n == 0 {
		return nil, free
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[data-size])), n), free
}
