package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestDotBlockMatchesReference holds the kernel dotBlock runs on this
// machine (dotKernel: the AVX kernel, called directly, when the probe
// allows it) to the pure-Go reference dotBlockGo bit for bit, any NaN
// matching any NaN: pair lists of 0 to 1000 pairs, panels as wide as OutC
// 1 to 64 rounded up to 16 lanes, every block of each, over normal
// values, over zeros of both signs mixed with subnormals, and over ±Inf,
// NaN and ±MaxFloat64 mixed into normals. Every lane of the panel is filled,
// padding lanes included, and the accumulator starts dirty, so the kernel
// must overwrite all 16 lanes and start each from +0.
func TestDotBlockMatchesReference(t *testing.T) {
	kernelName, kernel := dotKernel()
	t.Logf("kernel: %s", kernelName)
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
					label := fmt.Sprintf("%s %s outC=%d n=%d block=%d", kernelName, name, outC, n, b/blockLanes)
					var got, want [blockLanes]float64
					for i := range got {
						got[i] = math.NaN()
					}
					kernel(&got, w[b:], ldp, cols, vals)
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

// BenchmarkDotBlock times one output pixel of each student conv layer's
// channel dot products, every block of its panel, at the layer's dense
// pair count and panel width: conv1 27 pairs over 16 lanes, conv2 144
// over 32, conv3 288 over 64. It runs the kernel dotBlock runs here and
// the pure-Go reference dotBlockGo, so their ratio is the kernel's own
// speed-up.
func BenchmarkDotBlock(b *testing.B) {
	names, kernels := []string{"Go"}, []dotFunc{dotBlockGo}
	if name, kernel := dotKernel(); name != "Go" {
		names, kernels = append(names, name), append(kernels, kernel)
	}
	rng := rand.New(rand.NewSource(1))
	for _, layer := range []struct{ pairs, ldp int }{{27, 16}, {144, 32}, {288, 64}} {
		w := make([]float64, layer.pairs*layer.ldp)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		cols, vals := make([]int32, layer.pairs), make([]float64, layer.pairs)
		for p := range cols {
			cols[p], vals[p] = int32(p), rng.NormFloat64()
		}
		for k, kernel := range kernels {
			b.Run(fmt.Sprintf("%s/pairs=%d/ldp=%d", names[k], layer.pairs, layer.ldp), func(b *testing.B) {
				var acc [blockLanes]float64
				for i := 0; i < b.N; i++ {
					for blk := 0; blk < layer.ldp; blk += blockLanes {
						kernel(&acc, w[blk:], layer.ldp, cols, vals)
					}
				}
				dotSink = acc[0]
			})
		}
	}
}

var dotSink float64

// dotFunc is dotBlock's signature.
type dotFunc func(acc *[blockLanes]float64, w []float64, ldp int, cols []int32, vals []float64)
