// Package iotdata synthesizes the paper's evaluation dataset: the five
// tables of Alibaba's textile-printing IoT platform (video, fabric, client,
// order, device) at the paper's 100:10:1:10:1 size ratio, with video
// keyframes stored as blobs. The original dataset (100 M tuples, >100 GB of
// video resized to 224×224×3) is proprietary; the generator reproduces its
// statistical structure — table ratios, join keys, predicate columns with
// controllable selectivity, and keyframe tensors of configurable resolution
// — which is what every experiment in Section V actually depends on.
package iotdata

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// Config controls dataset generation.
type Config struct {
	// Scale is the base unit: client and device get Scale rows, fabric and
	// order 10×, video 100× (the paper's 100:10:1:10:1 ratio).
	Scale int
	// KeyframeSide is the square resolution of video keyframes (the paper
	// resizes to 224; benches default lower to keep runtimes sane).
	KeyframeSide int
	// Seed makes generation deterministic.
	Seed int64
	// PatternCount is the number of distinct fabric patterns.
	PatternCount int
}

// DefaultConfig is a laptop-scale dataset preserving the paper's ratios.
func DefaultConfig() Config {
	return Config{Scale: 20, KeyframeSide: 16, Seed: 42, PatternCount: 6}
}

// Sizes reports the row count of each table under the config.
func (c Config) Sizes() map[string]int {
	return map[string]int{
		"video":  100 * c.Scale,
		"fabric": 10 * c.Scale,
		"client": c.Scale,
		"order":  10 * c.Scale,
		"device": c.Scale,
	}
}

// Dataset wraps a populated database.
type Dataset struct {
	DB     *sqldb.DB
	Config Config
}

// KeyframeBytes serializes a CHW float64 tensor into the blob layout used
// by the video table: little-endian float64s prefixed by three int32 dims.
func KeyframeBytes(t *tensor.Tensor) []byte {
	s := t.Shape()
	buf := make([]byte, 12+8*t.Len())
	binary.LittleEndian.PutUint32(buf[0:], uint32(s[0]))
	binary.LittleEndian.PutUint32(buf[4:], uint32(s[1]))
	binary.LittleEndian.PutUint32(buf[8:], uint32(s[2]))
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint64(buf[12+8*i:], math.Float64bits(v))
	}
	return buf
}

// KeyframeTensor decodes a keyframe blob back into a tensor.
func KeyframeTensor(b []byte) (*tensor.Tensor, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("iotdata: keyframe blob too short (%d bytes)", len(b))
	}
	c := int(binary.LittleEndian.Uint32(b[0:]))
	h := int(binary.LittleEndian.Uint32(b[4:]))
	w := int(binary.LittleEndian.Uint32(b[8:]))
	n := c * h * w
	if len(b) != 12+8*n {
		return nil, fmt.Errorf("iotdata: keyframe blob length %d does not match dims %dx%dx%d", len(b), c, h, w)
	}
	out := tensor.New(c, h, w)
	for i := 0; i < n; i++ {
		out.Data()[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[12+8*i:]))
	}
	return out, nil
}

// Generate builds and populates the five tables.
func Generate(cfg Config) (*Dataset, error) {
	db := sqldb.New()
	ds := &Dataset{DB: db, Config: cfg}
	rng := newRand(cfg.Seed)
	sizes := cfg.Sizes()

	video, err := db.CreateTable("video", sqldb.Schema{
		{Name: "videoID", Type: sqldb.TInt},
		{Name: "transID", Type: sqldb.TInt},
		{Name: "date", Type: sqldb.TString},
		{Name: "keyframe", Type: sqldb.TBlob},
	})
	if err != nil {
		return nil, err
	}
	fabric, err := db.CreateTable("fabric", sqldb.Schema{
		{Name: "transID", Type: sqldb.TInt},
		{Name: "patternID", Type: sqldb.TInt},
		{Name: "meter", Type: sqldb.TFloat},
		{Name: "humidity", Type: sqldb.TFloat},
		{Name: "temperature", Type: sqldb.TFloat},
		{Name: "printdate", Type: sqldb.TString},
	})
	if err != nil {
		return nil, err
	}
	client, err := db.CreateTable("client", sqldb.Schema{
		{Name: "clientID", Type: sqldb.TInt},
		{Name: "name", Type: sqldb.TString},
		{Name: "region", Type: sqldb.TString},
	})
	if err != nil {
		return nil, err
	}
	order, err := db.CreateTable("order_tbl", sqldb.Schema{
		{Name: "orderID", Type: sqldb.TInt},
		{Name: "clientID", Type: sqldb.TInt},
		{Name: "transID", Type: sqldb.TInt},
		{Name: "amount", Type: sqldb.TFloat},
	})
	if err != nil {
		return nil, err
	}
	device, err := db.CreateTable("device", sqldb.Schema{
		{Name: "deviceID", Type: sqldb.TInt},
		{Name: "transID", Type: sqldb.TInt},
		{Name: "temperature", Type: sqldb.TFloat},
		{Name: "humidity", Type: sqldb.TFloat},
		{Name: "ts", Type: sqldb.TString},
	})
	if err != nil {
		return nil, err
	}

	nFabric := sizes["fabric"]
	for i := 0; i < nFabric; i++ {
		// humidity and temperature are uniform so predicate selectivity is
		// directly controllable by threshold.
		if err := fabric.AppendRow([]sqldb.Datum{
			sqldb.Int(int64(i)),                          // transID
			sqldb.Int(int64(rng.intn(cfg.PatternCount))), // patternID
			sqldb.Float(10 + rng.float()*990),            // meter
			sqldb.Float(rng.float() * 100),               // humidity
			sqldb.Float(rng.float() * 60),                // temperature
			sqldb.Str(dateFor(rng.intn(90))),             // printdate in Q1 2021
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sizes["video"]; i++ {
		transID := i % nFabric // ~10 clips per transaction
		kf := synthKeyframe(cfg.KeyframeSide, cfg.Seed+int64(i))
		if err := video.AppendRow([]sqldb.Datum{
			sqldb.Int(int64(i)),
			sqldb.Int(int64(transID)),
			sqldb.Str(dateFor(rng.intn(90))),
			sqldb.Blob(KeyframeBytes(kf)),
		}); err != nil {
			return nil, err
		}
	}
	regions := []string{"hangzhou", "shanghai", "shenzhen", "beijing"}
	for i := 0; i < sizes["client"]; i++ {
		if err := client.AppendRow([]sqldb.Datum{
			sqldb.Int(int64(i)),
			sqldb.Str(fmt.Sprintf("client_%d", i)),
			sqldb.Str(regions[rng.intn(len(regions))]),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sizes["order"]; i++ {
		if err := order.AppendRow([]sqldb.Datum{
			sqldb.Int(int64(i)),
			sqldb.Int(int64(rng.intn(sizes["client"]))),
			sqldb.Int(int64(i % nFabric)),
			sqldb.Float(100 + rng.float()*9900),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sizes["device"]; i++ {
		if err := device.AppendRow([]sqldb.Datum{
			sqldb.Int(int64(i)),
			sqldb.Int(int64(rng.intn(nFabric))),
			sqldb.Float(rng.float() * 60),
			sqldb.Float(rng.float() * 100),
			sqldb.Str(dateFor(rng.intn(90))),
		}); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// dateFor maps day offsets 0..89 into ISO dates across 2021 Q1.
func dateFor(day int) string {
	month := day/30 + 1
	d := day%30 + 1
	return fmt.Sprintf("2021-%02d-%02d", month, d)
}

// synthKeyframe generates a deterministic pseudo-image for a video row.
func synthKeyframe(side int, seed int64) *tensor.Tensor {
	out := tensor.New(3, side, side)
	rng := newRand(seed)
	for i := range out.Data() {
		out.Data()[i] = rng.float()
	}
	return out
}

// HumidityThresholdFor returns the humidity lower bound whose predicate
// `humidity > x` keeps roughly the requested fraction of fabric rows
// (humidity is uniform on [0, 100)).
func HumidityThresholdFor(selectivity float64) float64 {
	if selectivity <= 0 {
		return 100
	}
	if selectivity >= 1 {
		return 0
	}
	return 100 * (1 - selectivity)
}

// FabricPredicateFor builds a fabric-side conjunction with the requested
// overall selectivity, splitting it between humidity and temperature like
// the paper's Type 3 template.
func FabricPredicateFor(selectivity float64) string {
	perPred := math.Sqrt(selectivity)
	hum := 100 * (1 - perPred)
	temp := 60 * (1 - perPred)
	return fmt.Sprintf("F.humidity > %.4f and F.temperature > %.4f", hum, temp)
}

type splitMix struct{ state uint64 }

func newRand(seed int64) *splitMix { return &splitMix{state: uint64(seed)*0x9E3779B97F4A7C15 + 1} }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitMix) float() float64 { return float64(s.next()>>11) / float64(1<<53) }

func (s *splitMix) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(s.next() % uint64(n))
}
