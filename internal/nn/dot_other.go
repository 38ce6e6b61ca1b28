//go:build !amd64

package nn

// dotBlock runs the pure-Go reference where there is no assembly kernel.
func dotBlock(acc *[blockLanes]float64, w []float64, ldp int, cols []int32, vals []float64) {
	dotBlockGo(acc, w, ldp, cols, vals)
}
