package nn

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// dotKernel returns dotBlock and names the kernel it runs on this machine:
// the AVX kernel when the probe allows it, else the pure-Go reference.
func dotKernel() (string, dotFunc) {
	name := "Go"
	if useAVX {
		name = "AVX"
	}
	return name, dotBlock
}

// TestAVXProbe holds the CPUID/XGETBV probe to Linux's own reading: the
// kernel lists the avx flag in /proc/cpuinfo only when the CPU has AVX and
// XSAVE is enabled for its state, the conditions the probe checks.
func TestAVXProbe(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		listed := false
		for _, f := range strings.Fields(flags) {
			listed = listed || f == "avx"
		}
		if listed != useAVX {
			t.Fatalf("/proc/cpuinfo lists avx: %v; probe says AVX usable: %v", listed, useAVX)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
