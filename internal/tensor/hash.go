package tensor

import (
	"encoding/binary"
	"math"
)

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a stable FNV-1a digest over the tensor's shape and exact
// element bit patterns. Two tensors hash equal iff they have the same shape
// and bit-identical float64 data (NaN payloads and signed zeros included),
// which is what the inference memoization layer keys on: a repeated
// keyframe must hit, a perturbed one must miss.
func (t *Tensor) Hash() uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	for _, d := range t.shape {
		mix(uint64(d))
	}
	for _, v := range t.data {
		mix(math.Float64bits(v))
	}
	return h
}

// HashBytes returns a 64-bit digest of a byte slice: the stable id of a
// compiled artifact and of a keyframe blob in the prediction-cache keys.
// It reads 8 bytes at a time and mixes each word into its lane's state
// with the full-avalanche murmur3 finalizer, so a difference in any bit
// reaches every bit of the lane before the lane's next word arrives.
// Word-wise FNV would let two differences cancel, such as the sign bits
// of two adjacent float64s. Four lanes take consecutive words, so the
// mixes overlap and the loop runs near memory speed; the lanes fold
// together asymmetrically, and the length is folded in last, so b and b
// followed by zero bytes differ.
func HashBytes(b []byte) uint64 {
	n := len(b)
	h0, h1, h2, h3 := uint64(fnvOffset), uint64(fnvPrime), ^uint64(fnvOffset), ^uint64(fnvPrime)
	for ; len(b) >= 32; b = b[32:] {
		w := b[:32]
		h0 = mix64(h0 ^ binary.LittleEndian.Uint64(w[0:8]))
		h1 = mix64(h1 ^ binary.LittleEndian.Uint64(w[8:16]))
		h2 = mix64(h2 ^ binary.LittleEndian.Uint64(w[16:24]))
		h3 = mix64(h3 ^ binary.LittleEndian.Uint64(w[24:32]))
	}
	h := mix64(mix64(mix64(h0)^h1)^h2) ^ h3
	for ; len(b) >= 8; b = b[8:] {
		h = mix64(h ^ binary.LittleEndian.Uint64(b))
	}
	var tail uint64
	for i := len(b) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(b[i])
	}
	return mix64(mix64(h^tail) ^ uint64(n))
}

// mix64 is the murmur3 64-bit finalizer: a bijection in which every input
// bit flips each output bit with probability about one half.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HashMix folds additional words into an existing digest; dl2sql chains it
// over (model stamp, input hash, pipeline step) to key intermediate
// FeatureMap tables.
func HashMix(h uint64, words ...uint64) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= fnvPrime
			w >>= 8
		}
	}
	return h
}

// HashString folds a string into an existing digest.
func HashString(h uint64, s string) uint64 {
	if h == 0 {
		h = fnvOffset
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
