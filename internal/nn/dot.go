package nn

// blockLanes is the number of output channels one dotBlock call computes:
// one block of a Conv2D weight panel's columns.
const blockLanes = 16

// dotBlockGo is the reference for dotBlock's contract, and what dotBlock
// runs on architectures without an assembly kernel and on amd64 CPUs
// without AVX. For every lane i < 16 it
// sets acc[i] to the sum over the pairs p of w[cols[p]·ldp + i]·vals[p],
// accumulated in pair order from +0, each step acc + w·x.
func dotBlockGo(acc *[blockLanes]float64, w []float64, ldp int, cols []int32, vals []float64) {
	*acc = [blockLanes]float64{}
	vals = vals[:len(cols)]
	for p, col := range cols {
		x := vals[p]
		row := w[int(col)*ldp:][:blockLanes]
		for i := range acc {
			acc[i] += row[i] * x
		}
	}
}
