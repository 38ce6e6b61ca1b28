// Package costmodel implements Section IV-A of the paper: the customized
// cost model for SQL-implemented neural operators (Eqs. 3–8), alongside the
// default-DBMS estimator it is compared against in Figs. 12–13.
//
// The customized model exploits that a conv layer's relational cardinalities
// are fully determined by the layer geometry: the feature-map table holds
// T_in = H_out·W_out·k_in rows, the join selectivity against the kernel
// table is exactly 1/k_in, and therefore T_out = T_in·S_J·k_out. The default
// model, lacking statistics on intermediate tables, falls back to a fixed
// equi-join selectivity — the estimate the paper observes being
// "exaggerated exponentially after several iterations".
//
// Both models convert to seconds the same way (Section V-C's normalisation,
// split by operator kind): scanned rows and join pairs each at a unit time
// that Calibrate measures on the database running the SQL.
package costmodel

import (
	"fmt"
	"math"
	"time"

	"repro/internal/nn"
	"repro/internal/sqldb"
)

// ConvDims is the geometry of one convolutional layer, following the
// notation of Section IV-A.
type ConvDims struct {
	HIn, WIn int // input spatial dims
	NIn      int // input channels
	NOut     int // output channels
	K        int // square kernel side (k_h = k_w)
	Stride   int
	Pad      int
}

// OutDims applies Eq. (3): H_out = (H_in + 2p − k)/s + 1.
func (d ConvDims) OutDims() (hOut, wOut int) {
	hOut = convOut(d.HIn, d.K, d.Stride, d.Pad)
	wOut = convOut(d.WIn, d.K, d.Stride, d.Pad)
	return
}

// convOut guards Go's truncating division: spans below zero mean the kernel
// does not fit and the output dimension is 0.
func convOut(in, k, s, p int) int {
	span := in + 2*p - k
	if span < 0 {
		return 0
	}
	return span/s + 1
}

// KIn is the current layer's kernel-table size k_in = k_h·k_w·N_in.
func (d ConvDims) KIn() float64 { return float64(d.K * d.K * d.NIn) }

// KOut is the next layer's kernel-table size k_out = k_h·k_w·N_out.
func (d ConvDims) KOut() float64 { return float64(d.K * d.K * d.NOut) }

// TIn is the feature-map table cardinality T_in = H_out·W_out·k_in.
func (d ConvDims) TIn() float64 {
	h, w := d.OutDims()
	return float64(h*w) * d.KIn()
}

// JoinSelectivity is Eq. (4): S_J = 1/k_in.
func (d ConvDims) JoinSelectivity() float64 { return 1 / d.KIn() }

// TOut is Eq. (5): T_out = T_in·S_J·k_out — the cardinality of the output
// feature-map table once re-indexed into the next layer's patch layout
// (each output element appears k_out/N_out ≈ k² times across overlapping
// patches).
func (d ConvDims) TOut() float64 { return d.TIn() * d.JoinSelectivity() * d.KOut() }

// FlatOut is the exact flat output element count H_out·W_out·N_out — the
// cardinality of the Layer_Output table before the mapping pass.
func (d ConvDims) FlatOut() float64 {
	h, w := d.OutDims()
	return float64(h * w * d.NOut)
}

// JoinCost is Eq. (6): C_join = T_in + T_out·k_in (scan the feature map,
// probe the kernel table once per produced value).
func (d ConvDims) JoinCost() float64 { return d.TIn() + d.TOut()*d.KIn() }

// JoinPairs is the join's output cardinality under Eq. (4)'s exact
// selectivity: |FeatureMap|·|Kernel|·S_J = T_in·(k_in·N_out)/k_in =
// T_in·N_out, the pairs the hash join emits and SUM folds. Eq. (6)'s probe
// term T_out·k_in counts k² times as many.
func (d ConvDims) JoinPairs() float64 { return d.TIn() * float64(d.NOut) }

// TotalCost is Eq. (7): C_out = C_join + T_out (the mapping pass is an
// output-table scan; the mapping table itself stays L2-resident).
func (d ConvDims) TotalCost() float64 { return d.JoinCost() + d.TOut() }

// NextTIn is Eq. (8): the feature-map cardinality feeding the next conv of
// kernel k, stride s, padding p, given this layer's output.
func (d ConvDims) NextTIn(k, stride, pad int) float64 {
	side := d.TOut() / d.KOut() // = H_out·W_out
	// Output spatial side (square inputs assumed, as in the paper).
	hOut, _ := d.OutDims()
	_ = side
	next := ConvDims{HIn: hOut, WIn: hOut, NIn: d.NOut, NOut: d.NOut, K: k, Stride: stride, Pad: pad}
	return next.TIn()
}

// LayerCost is the customized estimate for one layer. Cost is Eq. (7)'s
// abstract units, which the hint rules rank by; Scan and Pairs count the
// row operations the SQL executes, which Seconds prices.
type LayerCost struct {
	Name  string
	Kind  string
	Cost  float64 // abstract cost units (row operations)
	Scan  float64 // rows scanned or written
	Pairs float64 // join pairs
	TOut  float64 // estimated output cardinality
}

// Seconds converts the layer's estimate to seconds at the ratios u.
func (lc LayerCost) Seconds(u Ratios) float64 { return u.Seconds(lc.Scan, lc.Pairs) }

// ModelCost aggregates the per-layer estimates over a model.
type ModelCost struct {
	PerLayer []LayerCost
	Total    float64
	Scan     float64
	Pairs    float64
}

// Seconds converts the model's estimate to seconds at the ratios u.
func (mc *ModelCost) Seconds(u Ratios) float64 { return u.Seconds(mc.Scan, mc.Pairs) }

// add accumulates one layer's estimate into the totals.
func (mc *ModelCost) add(lc LayerCost) {
	mc.Total += lc.Cost
	mc.Scan += lc.Scan
	mc.Pairs += lc.Pairs
}

// convCost is the customized estimate of one conv (or FC) join.
func convCost(d ConvDims) LayerCost {
	return LayerCost{Cost: d.TotalCost(), Scan: d.TIn() + d.TOut(), Pairs: d.JoinPairs(), TOut: d.TOut()}
}

// convDimsOf extracts geometry from a Conv2D given its input shape.
func convDimsOf(c *nn.Conv2D, in []int) ConvDims {
	return ConvDims{HIn: in[1], WIn: in[2], NIn: c.InC, NOut: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad}
}

// EstimateModel walks a model and produces the customized cost estimate for
// its SQL execution. Convolutions follow Eqs. 3–8; BN, ReLU, pooling and
// other elementwise operators are linear scans of their feature-map table,
// as Section IV-A prescribes; residual blocks sum their convolution blocks.
func EstimateModel(m *nn.Model) (*ModelCost, error) {
	shapes, err := m.LayerShapes()
	if err != nil {
		return nil, fmt.Errorf("costmodel: %w", err)
	}
	mc := &ModelCost{}
	var walk func(layers []nn.Layer, in []int) ([]int, error)
	walk = func(layers []nn.Layer, in []int) ([]int, error) {
		cur := in
		for _, l := range layers {
			out, err := l.OutShape(cur)
			if err != nil {
				return nil, err
			}
			var lc LayerCost
			switch v := l.(type) {
			case *nn.Conv2D:
				lc = convCost(convDimsOf(v, cur))
			case *nn.Deconv2D:
				// scatter join: every input row probes k² output slots per
				// output channel
				tin := float64(prod(cur))
				tout := float64(prod(out))
				lc.Pairs = tout * float64(v.K*v.K)
				lc.Scan = tin
				lc.Cost = tin + lc.Pairs
				lc.TOut = tout
			case *nn.Linear:
				lc = convCost(ConvDims{HIn: 1, WIn: 1, NIn: v.In, NOut: v.Out, K: 1, Stride: 1})
				lc.TOut = float64(v.Out)
			case *nn.ResidualBlock:
				sub := &ModelCost{}
				inShape := cur
				collectChain(sub, v.Main, inShape)
				collectChain(sub, v.Shortcut, inShape)
				scans := float64(prod(out)) * 2 // add + relu scans
				lc = LayerCost{Cost: sub.Total + scans, Scan: sub.Scan + scans, Pairs: sub.Pairs, TOut: float64(prod(out))}
			case *nn.DenseBlock:
				sub := &ModelCost{}
				grow := cur
				for _, s := range v.Stages {
					collectChain(sub, []nn.Layer{s}, grow)
					grow = []int{grow[0] + v.Growth, grow[1], grow[2]}
				}
				concat := float64(prod(out)) // concat insert
				lc = LayerCost{Cost: sub.Total + concat, Scan: sub.Scan + concat, Pairs: sub.Pairs, TOut: float64(prod(out))}
			case *nn.BasicAttention:
				one := convCost(ConvDims{HIn: 1, WIn: 1, NIn: v.Dim, NOut: v.Dim, K: 1, Stride: 1})
				scans := 3 * float64(v.Dim)
				lc = LayerCost{Cost: 2*one.Cost + scans, Scan: 2*one.Scan + scans, Pairs: 2 * one.Pairs, TOut: float64(v.Dim)}
			default:
				// BN, ReLU, pooling, softmax, flatten: linear in the input
				// feature-map size (single scan).
				lc.Cost = float64(prod(cur))
				lc.Scan = lc.Cost
				lc.TOut = float64(prod(out))
			}
			lc.Name, lc.Kind = l.Name(), l.Kind()
			mc.PerLayer = append(mc.PerLayer, lc)
			mc.add(lc)
			cur = out
		}
		return cur, nil
	}
	if _, err := walk(m.Layers, shapes[0]); err != nil {
		return nil, err
	}
	return mc, nil
}

// collectChain estimates a sub-chain into mc (used for residual/dense
// internals).
func collectChain(mc *ModelCost, layers []nn.Layer, in []int) {
	cur := in
	for _, l := range layers {
		out, err := l.OutShape(cur)
		if err != nil {
			return
		}
		switch v := l.(type) {
		case *nn.Conv2D:
			mc.add(convCost(convDimsOf(v, cur)))
		default:
			n := float64(prod(cur))
			mc.add(LayerCost{Cost: n, Scan: n})
		}
		cur = out
	}
}

// DefaultJoinSelectivity is the fallback equi-join selectivity a stock
// optimizer assumes when the joined columns carry no statistics — which is
// always the case for the freshly-created intermediate tables of DL2SQL.
const DefaultJoinSelectivity = 0.1

// DefaultEstimateModel mimics the database's built-in estimator on the same
// pipeline: every conv join is estimated as |FeatureMap|·|Kernel|·0.1 with
// no grouping reduction, and the (wrong) output cardinality feeds the next
// layer — compounding exponentially, the pathology of Fig. 12.
func DefaultEstimateModel(m *nn.Model) (*ModelCost, error) {
	shapes, err := m.LayerShapes()
	if err != nil {
		return nil, fmt.Errorf("costmodel: %w", err)
	}
	mc := &ModelCost{}
	cur := shapes[0]
	rows := float64(prod(cur)) // believed cardinality of the current relation
	for _, l := range m.Layers {
		out, err := l.OutShape(cur)
		if err != nil {
			return nil, err
		}
		lc := LayerCost{Name: l.Name(), Kind: l.Kind()}
		switch v := l.(type) {
		case *nn.Conv2D:
			kernelRows := float64(v.OutC * v.InC * v.K * v.K)
			joined := rows * kernelRows * DefaultJoinSelectivity
			lc.Cost = rows + joined
			lc.Pairs = joined
			lc.TOut = joined // the default model does not understand the GROUP BY reduction
			rows = joined
		case *nn.Linear:
			kernelRows := float64(v.In * v.Out)
			joined := rows * kernelRows * DefaultJoinSelectivity
			lc.Cost = rows + joined
			lc.Pairs = joined
			lc.TOut = joined
			rows = joined
		case *nn.ResidualBlock, *nn.DenseBlock:
			joined := rows * rows * DefaultJoinSelectivity // self-join guess
			lc.Cost = rows + joined
			lc.Pairs = joined
			lc.TOut = joined
			rows = joined
		default:
			lc.Cost = rows
			lc.TOut = rows
		}
		lc.Scan = lc.Cost - lc.Pairs
		mc.PerLayer = append(mc.PerLayer, lc)
		mc.add(lc)
		cur = out
	}
	return mc, nil
}

// NormalizationRatio measures r = seq_time/seq_scan_cost on the given
// database (Section V-C): the wall time of scanning one row, used to
// convert abstract cost units into seconds.
func NormalizationRatio(db *sqldb.DB) (float64, error) {
	const rows = 20000
	name := "costmodel_calib"
	tbl, err := calibTable(db, name, sqldb.Schema{
		{Name: "id", Type: sqldb.TInt},
		{Name: "v", Type: sqldb.TFloat},
	})
	if err != nil {
		return 0, err
	}
	defer db.DropTable(name)
	for i := 0; i < rows; i++ {
		if err := tbl.AppendRow([]sqldb.Datum{sqldb.Int(int64(i)), sqldb.Float(float64(i))}); err != nil {
			return 0, err
		}
	}
	best, err := bestOf(db, "SELECT sum(v) s FROM costmodel_calib WHERE id >= 0")
	if err != nil {
		return 0, err
	}
	return best.Seconds() / rows, nil
}

// PairRatio measures the wall time of one join pair on the given database:
// a convolution-shaped join -> SUM aggregate (the statement DL2SQL runs per
// conv layer) over calibration tables, divided by its join pairs. The
// statement's scans and groups are charged to its pairs too, so the ratio
// is an upper bound on a pair's own cost.
func PairRatio(db *sqldb.DB) (float64, error) {
	const matrices, orders, kernels = 500, 40, 4
	fm, err := calibTable(db, "costmodel_calib_fm", sqldb.Schema{
		{Name: "MatrixID", Type: sqldb.TInt},
		{Name: "OrderID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	})
	if err != nil {
		return 0, err
	}
	defer db.DropTable("costmodel_calib_fm")
	kt, err := calibTable(db, "costmodel_calib_k", sqldb.Schema{
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "OrderID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	})
	if err != nil {
		return 0, err
	}
	defer db.DropTable("costmodel_calib_k")
	for m := 0; m < matrices; m++ {
		for o := 0; o < orders; o++ {
			if err := fm.AppendRow([]sqldb.Datum{sqldb.Int(int64(m)), sqldb.Int(int64(o)), sqldb.Float(float64(m+o) / orders)}); err != nil {
				return 0, err
			}
		}
	}
	for k := 0; k < kernels; k++ {
		for o := 0; o < orders; o++ {
			if err := kt.AppendRow([]sqldb.Datum{sqldb.Int(int64(k)), sqldb.Int(int64(o)), sqldb.Float(float64(k-o) / orders)}); err != nil {
				return 0, err
			}
		}
	}
	best, err := bestOf(db, fmt.Sprintf(
		`SELECT B.KernelID * %d + A.MatrixID AS TupleID, SUM(A.Value * B.Value) AS Value FROM costmodel_calib_fm A INNER JOIN costmodel_calib_k B ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID`,
		matrices))
	if err != nil {
		return 0, err
	}
	return best.Seconds() / (matrices * orders * kernels), nil
}

// Ratios price the two kinds of abstract cost unit in seconds: Section
// V-C's normalisation, measured per operator kind on the database that
// runs the SQL.
type Ratios struct {
	Scan float64 // seconds per scanned row (NormalizationRatio)
	Pair float64 // seconds per join pair (PairRatio)
}

// Calibrate measures both ratios on db.
func Calibrate(db *sqldb.DB) (Ratios, error) {
	scan, err := NormalizationRatio(db)
	if err != nil {
		return Ratios{}, err
	}
	pair, err := PairRatio(db)
	if err != nil {
		return Ratios{}, err
	}
	return Ratios{Scan: scan, Pair: pair}, nil
}

// Seconds prices scan scanned rows and pairs join pairs.
func (u Ratios) Seconds(scan, pairs float64) float64 {
	return scan*u.Scan + pairs*u.Pair
}

// calibTable (re)creates an empty calibration table.
func calibTable(db *sqldb.DB, name string, schema sqldb.Schema) (*sqldb.Table, error) {
	db.DropTable(name)
	return db.CreateTable(name, schema)
}

// calibTrials is how many times a calibration statement runs; the fastest
// run counts, so a GC cycle or scheduler stall in one run does not.
const calibTrials = 9

// bestOf runs sql calibTrials times and returns its fastest wall time.
func bestOf(db *sqldb.DB, sql string) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for trial := 0; trial < calibTrials; trial++ {
		start := time.Now()
		if _, err := db.Query(sql); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// ToSeconds converts abstract cost units to seconds with ratio r.
func ToSeconds(cost, r float64) float64 { return cost * r }

func prod(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}
