package nn

import "odin/internal/tensor"

// ws is the package-wide workspace: every layer, loss and training loop
// draws scratch and output matrices from this pool instead of allocating.
// Backward passes hand dead intermediates back (see Network.Backward), so
// a steady-state training step recycles its entire working set.
var ws = tensor.NewPool()

// GetMat returns an all-zero r×c matrix from the shared workspace pool.
func GetMat(r, c int) *tensor.Mat { return ws.Get(r, c) }

// GetMatRaw returns an r×c workspace matrix with unspecified contents, for
// callers that overwrite every element before reading.
func GetMatRaw(r, c int) *tensor.Mat { return ws.GetRaw(r, c) }

// Recycle hands matrices back to the shared workspace pool. Training loops
// call this on batch matrices, loss gradients and final backward outputs
// once a step is done; a recycled matrix must not be used again.
func Recycle(ms ...*tensor.Mat) { ws.Put(ms...) }

// rowCache is a training cache of fixed-width rows kept at the largest
// batch seen: each batch views its first rows, and only a larger batch
// reallocates it (zeroed). A recovery build's short last batch and the full
// batch after it therefore share one buffer instead of trading two.
type rowCache struct {
	buf  []float64
	view tensor.Mat
}

// rows returns the cache viewed as r rows of width c. Rows past the last
// batch's keep what that batch (or an earlier one) wrote.
func (rc *rowCache) rows(r, c int) *tensor.Mat {
	if len(rc.buf) < r*c {
		rc.buf = make([]float64, r*c)
	}
	rc.view = tensor.Mat{R: r, C: c, V: rc.buf[:r*c]}
	return &rc.view
}

// drop releases the buffer.
func (rc *rowCache) drop() { *rc = rowCache{} }
