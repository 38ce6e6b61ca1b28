package nn_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
)

// studentArtifact is the encoded Fig. 8 student model, the artifact every
// native query loads.
func studentArtifact(tb testing.TB) []byte {
	tb.Helper()
	blob, err := nn.EncodeBytes(modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 16, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// everyKindModel is a small model holding every layer kind the format
// encodes, nested blocks included.
func everyKindModel() *nn.Model {
	rb := nn.NewResidualBlock("rb", 2, 2, 1, 2)
	rb.Main = append(rb.Main, &nn.Sigmoid{LayerName: "sig"})
	return nn.NewModel("kinds", []int{1, 4, 4}, []string{"a", "b"}).Add(
		nn.NewConv2D("c", 1, 2, 3, 1, 1, 1),
		nn.NewDeconv2D("dc", 2, 2, 2, 2, 0, 1),
		nn.NewInstanceNorm("in", 2),
		&nn.MaxPool{LayerName: "mp", K: 2, Stride: 2},
		&nn.AvgPool{LayerName: "ap", K: 1, Stride: 1},
		rb,
		nn.NewIdentityResidualBlock("ib", 2, 3),
		nn.NewDenseBlock("db", 2, 1, 2, 4),
		&nn.ReLU{LayerName: "r"},
		&nn.GlobalAvgPool{LayerName: "gap"},
		&nn.Flatten{LayerName: "f"},
		nn.NewBasicAttention("att", 4, 5),
		nn.NewLinear("fc", 4, 2, 6),
		&nn.Softmax{LayerName: "sm"},
	)
}

// FuzzDecodeModel feeds arbitrary bytes to the decoder, seeded with the
// repository's encoded models. Decoding must never panic, must fail only
// with ErrCorruptArtifact, and whatever decodes must re-encode to the
// same bytes: the decoder accepts exactly what Encode can write.
func FuzzDecodeModel(f *testing.F) {
	repo := modelrepo.NewRepository(8, 99)
	for _, task := range []modelrepo.Task{modelrepo.TaskDefectDetection, modelrepo.TaskClothesClass,
		modelrepo.TaskTextileType, modelrepo.TaskPatternRecog} {
		blob, err := nn.EncodeBytes(repo.ForTask(task).Model)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	blob, err := nn.EncodeBytes(everyKindModel())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := nn.DecodeBytes(b)
		if err != nil {
			if !errors.Is(err, nn.ErrCorruptArtifact) {
				t.Fatalf("decode failed without ErrCorruptArtifact: %v", err)
			}
			return
		}
		again, err := nn.EncodeBytes(m)
		if err != nil {
			t.Fatalf("decoded model does not re-encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding %d bytes gave %d different bytes", len(b), len(again))
		}
	})
}

// TestDecodeRoundTripEveryKind: every layer kind survives a round trip
// byte for byte.
func TestDecodeRoundTripEveryKind(t *testing.T) {
	m := everyKindModel()
	if _, err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	blob, err := nn.EncodeBytes(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := nn.DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := nn.EncodeBytes(m2)
	if err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("round trip changed the artifact (err %v)", err)
	}
}

// TestDecodeCorruptArtifacts: corrupt artifacts return ErrCorruptArtifact
// without panicking and without allocating for a length prefix the bytes
// cannot back.
func TestDecodeCorruptArtifacts(t *testing.T) {
	fc := nn.NewModel("fc", []int{4}, []string{"a", "b"}).Add(nn.NewLinear("fc", 4, 2, 1))
	good, err := nn.EncodeBytes(fc)
	if err != nil {
		t.Fatal(err)
	}
	// In bumped from 4 to 5: the header no longer matches the 8 weights.
	fc.Layers[0].(*nn.Linear).In = 5
	bumped, err := nn.EncodeBytes(fc)
	if err != nil {
		t.Fatal(err)
	}
	// The weight count follows the linear record's kind, name and dims.
	hdr := bytes.Index(good, []byte("linear")) + len("linear") + 4 + len("fc") + 4 + 2*8
	huge := bytes.Clone(good)
	binary.LittleEndian.PutUint32(huge[hdr:], 0xfffffff0)
	badKind := bytes.Clone(good)
	copy(badKind[bytes.Index(good, []byte("linear")):], "lineaR")
	cases := map[string][]byte{
		"empty":           nil,
		"bad magic":       []byte("NOTAMODEL___"),
		"truncated":       good[:len(good)-3],
		"trailing bytes":  append(bytes.Clone(good), 0),
		"dims vs weights": bumped,
		"huge prefix":     huge,
		"unknown kind":    badKind,
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := nn.DecodeBytes(b)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, nn.ErrCorruptArtifact) {
			t.Errorf("%s: err = %v, want ErrCorruptArtifact", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", name, grew)
		}
	}
	if _, err := nn.Decode(bytes.NewReader(good)); err != nil {
		t.Fatalf("Decode of a good artifact: %v", err)
	}
}

// TestDecodeBytesAllocs: decoding costs a bounded number of allocations
// per layer, however many weights the layers hold.
func TestDecodeBytesAllocs(t *testing.T) {
	blob := studentArtifact(t)
	m, err := nn.DecodeBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	const perLayer, perModel = 8, 8
	limit := float64(perLayer*len(m.Layers) + perModel)
	if allocs := testing.AllocsPerRun(20, func() { nn.DecodeBytes(blob) }); allocs > limit {
		t.Fatalf("DecodeBytes of the %d-byte student artifact: %.0f allocations, want <= %.0f (%d layers)",
			len(blob), allocs, limit, len(m.Layers))
	}
}

func BenchmarkDecodeBytes(b *testing.B) {
	blob := studentArtifact(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := nn.DecodeBytes(blob); err != nil {
			b.Fatal(err)
		}
	}
}
