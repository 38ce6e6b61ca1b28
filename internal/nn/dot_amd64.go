package nn

// dotBlock is dotBlockGo in SSE2 (dot_amd64.s): eight XMM accumulators of
// two lanes each, and for every pair one broadcast of the value, then
// MULPD and ADDPD per accumulator, in the order acc + w·x. It checks no
// bounds: cols[p]·ldp + 16 must be at most len(w) for every p, and
// len(vals) at least len(cols).
//
//go:noescape
func dotBlock(acc *[blockLanes]float64, w []float64, ldp int, cols []int32, vals []float64)
