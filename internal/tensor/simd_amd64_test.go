package tensor

import (
	"reflect"
	"testing"
)

// TestVectorPathLive: on an AVX2 host init turns the vector path on, and
// every slot of both dtypes' row sets holds its assembly entry.
func TestVectorPathLive(t *testing.T) {
	if !detectAVX2() {
		t.Skip("no AVX2 on this host")
	}
	if !Vectorized() {
		t.Fatal("AVX2 detected, but init left the vector path off")
	}
	for _, c := range []struct {
		slot      string
		got, want any
	}{
		{"rows64.axpy4", rows64.axpy4, axpy4x64},
		{"rows64.axpy1", rows64.axpy1, axpy1x64},
		{"rows64.tile", rows64.tile, tile4x64},
		{"rows64.gather2", rows64.gather2, gather2x64},
		{"rows32.axpy4", rows32.axpy4, axpy4x32},
		{"rows32.axpy1", rows32.axpy1, axpy1x32},
		{"rows32.tile", rows32.tile, tile4x32},
		{"rows32.gather2", rows32.gather2, gather2x32},
	} {
		if reflect.ValueOf(c.got).Pointer() != reflect.ValueOf(c.want).Pointer() {
			t.Errorf("%s does not hold its assembly entry", c.slot)
		}
	}
}
