package tensor_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/iotdata"
	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// floatBytes lays out float64s as little-endian words, as artifacts and
// keyframe blobs store them.
func floatBytes(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// wordFNV is FNV-1a taken a word at a time: the fast hash HashBytes must
// not be, because multiplication carries differences only upward.
func wordFNV(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 1099511628211
	}
	return h
}

func TestHashBytes(t *testing.T) {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i+1) / 7
	}
	a := floatBytes(vals)
	if tensor.HashBytes(a) != tensor.HashBytes(floatBytes(vals)) {
		t.Fatal("equal bytes hash differently")
	}

	// Flipping the signs of two adjacent float64s: word-wise FNV cancels
	// the two differences, HashBytes must not.
	flipped := append([]float64(nil), vals...)
	flipped[4], flipped[5] = -flipped[4], -flipped[5]
	b := floatBytes(flipped)
	if wordFNV(a) != wordFNV(b) {
		t.Fatal("reference: word-wise FNV no longer collides on the sign-bit pair")
	}
	if tensor.HashBytes(a) == tensor.HashBytes(b) {
		t.Fatal("sign bits of two adjacent float64s cancel")
	}

	// Tails of every length 0–15: every prefix of a buffer hashes apart,
	// a change to a tail's last byte changes the hash, and so does a
	// trailing zero byte (the length is folded in).
	buf := make([]byte, 17)
	seen := map[uint64]int{}
	for n := 0; n < 16; n++ {
		h := tensor.HashBytes(buf[:n])
		if m, ok := seen[h]; ok {
			t.Fatalf("%d and %d zero bytes hash equal", m, n)
		}
		seen[h] = n
		if h == tensor.HashBytes(buf[:n+1]) {
			t.Fatalf("%d bytes and the same followed by 0x00 hash equal", n)
		}
		if n > 0 {
			tail := append([]byte(nil), buf[:n]...)
			tail[n-1] ^= 0x80
			if h == tensor.HashBytes(tail) {
				t.Fatalf("length %d: flipping the last byte's top bit keeps the hash", n)
			}
		}
	}
}

func BenchmarkHashBytes(b *testing.B) {
	art, err := nn.EncodeBytes(modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	kf := tensor.New(3, 16, 16)
	for i := range kf.Data() {
		kf.Data()[i] = float64(i%251) / 251
	}
	for _, in := range []struct {
		name string
		blob []byte
	}{{"student-artifact", art}, {"keyframe-side16", iotdata.KeyframeBytes(kf)}} {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.blob)))
			for i := 0; i < b.N; i++ {
				sink = tensor.HashBytes(in.blob)
			}
		})
	}
}

var sink uint64
