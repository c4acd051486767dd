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
