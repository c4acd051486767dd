package tensor

import (
	"reflect"
	"runtime"
	"testing"
)

// slotsHold fails t for every slot of the installed row set that does not
// hold the AVX2 set's entry, with tile in the tile slot.
func slotsHold(t *testing.T, tile any) {
	t.Helper()
	for _, c := range []struct {
		slot      string
		got, want any
	}{
		{"ops.axpy4", ops.axpy4, axpy4x64},
		{"ops.axpy1", ops.axpy1, axpy1x64},
		{"ops.tile", ops.tile, tile},
		{"ops.split2", ops.split2, split2x64},
		{"ops.halve", ops.halve, halve2x64},
	} {
		if reflect.ValueOf(c.got).Pointer() != reflect.ValueOf(c.want).Pointer() {
			t.Errorf("%s does not hold %s", c.slot, funcName(c.want))
		}
	}
}

func funcName(f any) string { return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name() }

// TestVectorPathLive: on an AVX2 host init turns the vector path on, and
// every slot of the row set holds its assembly entry — the tile slot the
// AVX-512F tile where the CPU has it, the AVX2 tile where it has
// only AVX2. Forced down to AVX2, the set is the AVX2 one exactly. The log
// names the tile that is live.
func TestVectorPathLive(t *testing.T) {
	if hostISA < isaAVX2 {
		t.Skip("no AVX2 on this host")
	}
	if hostISA == isaAVX512 {
		slotsHold(t, tile4x64z)
	} else {
		slotsHold(t, tile4x64)
	}
	t.Logf("live register tile: %s", funcName(ops.tile))

	defer setISA(hostISA)
	if !setISA(isaAVX2) {
		t.Fatal("an AVX2 host refused the AVX2 level")
	}
	slotsHold(t, tile4x64)
}

// TestAVX512Usable: the AVX-512F tile needs the F bit of CPUID.(7,0).EBX
// and an OS that saves every part of the state it touches.
func TestAVX512Usable(t *testing.T) {
	const f, all = 1 << 16, 0xe7 // x87, SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	for _, c := range []struct {
		name       string
		ebx7, xcr0 uint32
		want       bool
	}{
		{"F and the full state", f, all, true},
		{"F among other leaf-7 bits", f | 1<<5 | 1<<17, all | 1<<9, true},
		{"F bit clear", 1 << 5, all, false},
		{"no opmask state (XCR0 bit 5)", f, all &^ (1 << 5), false},
		{"no ZMM_Hi256 state (XCR0 bit 6)", f, all &^ (1 << 6), false},
		{"no Hi16_ZMM state (XCR0 bit 7)", f, all &^ (1 << 7), false},
		{"no YMM state (XCR0 bit 2)", f, all &^ (1 << 2), false},
		{"no SSE state (XCR0 bit 1)", f, all &^ (1 << 1), false},
	} {
		if got := avx512Usable(c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: avx512Usable(%#x, %#x) = %v, want %v", c.name, c.ebx7, c.xcr0, got, c.want)
		}
	}
}
