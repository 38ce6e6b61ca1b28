//go:build !amd64

package nn

// dotKernel names and returns the kernel dotBlock runs on this machine:
// the pure-Go reference, as there is no assembly kernel here.
func dotKernel() (string, dotFunc) {
	return "Go", dotBlockGo
}
