package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDotBlockMatchesReference holds dotBlock, the SSE2 kernel on amd64,
// to the pure-Go reference dotBlockGo bit for bit, any NaN matching any
// NaN: pair lists of 0 to 1000 pairs, panels as wide as OutC 1 to 64
// rounded up to 16 lanes, every block of each, over normal values, over
// zeros of both signs mixed with subnormals, and over ±Inf, NaN and
// ±MaxFloat64 mixed into normals. Every lane of the panel is filled,
// padding lanes included, and the accumulator starts dirty, so the kernel
// must overwrite all 16 lanes and start each from +0.
func TestDotBlockMatchesReference(t *testing.T) {
	subnormals := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1)}
	regimes := map[string]func(rng *rand.Rand) float64{
		"normal": func(rng *rand.Rand) float64 { return rng.NormFloat64() },
		"subnormal": func(rng *rand.Rand) float64 {
			if rng.Intn(2) == 0 {
				return subnormals[rng.Intn(len(subnormals))]
			}
			return rng.NormFloat64() * 1e-300
		},
		"special": func(rng *rand.Rand) float64 {
			if rng.Intn(64) == 0 {
				return specials[rng.Intn(len(specials))]
			}
			return rng.NormFloat64()
		},
	}
	const kk = 300
	for name, value := range regimes {
		rng := rand.New(rand.NewSource(int64(len(name))))
		for _, outC := range []int{1, 5, 16, 17, 33, 64} {
			ldp := (outC + blockLanes - 1) / blockLanes * blockLanes
			w := make([]float64, kk*ldp)
			for i := range w {
				w[i] = value(rng)
			}
			for _, n := range []int{0, 1, 2, 27, 144, 288, 1000} {
				cols, vals := make([]int32, n), make([]float64, n)
				for p := range cols {
					cols[p], vals[p] = int32(rng.Intn(kk)), value(rng)
				}
				for b := 0; b < outC; b += blockLanes {
					label := fmt.Sprintf("%s outC=%d n=%d block=%d", name, outC, n, b/blockLanes)
					var got, want [blockLanes]float64
					for i := range got {
						got[i] = math.NaN()
					}
					dotBlock(&got, w[b:], ldp, cols, vals)
					dotBlockGo(&want, w[b:], ldp, cols, vals)
					for i := range got {
						g, e := got[i], want[i]
						if math.Float64bits(g) != math.Float64bits(e) && !(math.IsNaN(g) && math.IsNaN(e)) {
							t.Fatalf("%s lane %d: kernel %v (%#x), reference %v (%#x)",
								label, i, g, math.Float64bits(g), e, math.Float64bits(e))
						}
					}
				}
			}
		}
	}
}
