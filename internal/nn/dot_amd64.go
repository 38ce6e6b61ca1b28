package nn

// useAVX records, once at package init, whether the CPU and the operating
// system support AVX: CPUID.1:ECX reports OSXSAVE (bit 27) and AVX (bit
// 28), and XCR0 has the SSE and AVX state bits (1 and 2) set, so the
// operating system saves the YMM registers' upper halves. dotBlock reads
// it on every call.
var useAVX = avxUsable()

func avxUsable() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false // XGETBV itself needs OSXSAVE
	}
	return xgetbv()&6 == 6
}

// dotBlock is dotBlockGo in AVX (dot_amd64.s) where useAVX holds: four YMM
// accumulators of four lanes each, and for every pair one broadcast of the
// value, then VMULPD and VADDPD per accumulator, in the order acc + w·x.
// On amd64 CPUs without AVX it runs dotBlockGo. It checks no bounds:
// cols[p]·ldp + 16 must be at most len(w) for every p, and len(vals) at
// least len(cols).
//
//go:noescape
func dotBlock(acc *[blockLanes]float64, w []float64, ldp int, cols []int32, vals []float64)

// cpuid runs CPUID with EAX = leaf and ECX = 0.
func cpuid(leaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0. It faults unless CPUID reports
// OSXSAVE.
func xgetbv() (eax uint32)
