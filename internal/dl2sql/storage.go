package dl2sql

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/nn"
	"repro/internal/sqldb"
	"repro/internal/tensor"
)

// StoredModel is a model compiled into relational tables: the DL2SQL
// equivalent of a deployed artifact. It records, per layer, the tables the
// inference pipeline will touch, and keeps the programs its inferences run:
// the model's layer statements compiled once per variant.
type StoredModel struct {
	Model      *nn.Model
	Prefix     string
	db         *sqldb.DB // the database holding the model's tables
	layers     []storedLayer
	tableNames []string

	// hashOnce computes weightsHash, the fingerprint of the encoded
	// weights, on the first Stamp; Stamp mixes it with live table versions.
	hashOnce    sync.Once
	weightsHash uint64

	progs sync.Map // variant → *program, compiled on first use
}

// storedLayer carries the compile-time info for one executable layer.
type storedLayer struct {
	layer nn.Layer
	// inShape is the layer's input tensor shape during a forward pass.
	inShape  []int
	outShape []int
	// kernelTable / biasTable for conv/linear/deconv/attention layers.
	kernelTable string
	biasTable   string
	// mappingTable re-indexes the previous flat output into this layer's
	// patch layout (conv beyond the first, pooling).
	mappingTable string
	// sub-blocks for residual / dense blocks.
	main     []storedLayer
	shortcut []storedLayer
	// index of this conv/pool among convs for step labels (Conv1, Conv2...).
	ordinal int
}

// StoreModel compiles a model into relational tables (kernel, bias,
// metadata, and mapping tables). This is the offline step of DL2SQL; its
// cost is part of the paper's "loading" bucket and its footprint is what
// Table IV measures. On error it drops every table it created.
func (t *Translator) StoreModel(m *nn.Model) (_ *StoredModel, err error) {
	shapes, err := m.LayerShapes()
	if err != nil {
		return nil, fmt.Errorf("dl2sql: model %s does not validate: %w", m.ModelName, err)
	}
	sm := &StoredModel{Model: m, Prefix: t.Prefix, db: t.DB}
	defer func() {
		if err != nil {
			sm.Drop()
		}
	}()
	// Metadata table: one row of hyper-parameters per stored layer, stored
	// once every layer is.
	metaName := t.tname("meta")
	sm.tableNames = append(sm.tableNames, metaName)
	var metaNames, metaKinds []string
	var metaInts [5][]int64 // InC, OutC, K, Stride, Pad

	// table records name as one of the model's tables and stores it.
	table := func(name string, store func(name string) error) (string, error) {
		sm.tableNames = append(sm.tableNames, name)
		return name, store(name)
	}
	convOrdinal := 0
	// weights numbers a weighted layer among the convolutions and stores
	// its kernel-form table, and its bias beside it when it has one.
	weights := func(sl *storedLayer, name string, store func(name string) error, bias []float64) (err error) {
		convOrdinal++
		sl.ordinal = convOrdinal
		sl.kernelTable, err = table(fmt.Sprintf("%s%d", name, convOrdinal), store)
		if err == nil && bias != nil {
			sl.biasTable, err = table(sl.kernelTable+"_bias", func(name string) error { return t.storeBias(name, bias) })
		}
		return err
	}
	var compile func(layers []nn.Layer, inShape []int, tag string) ([]storedLayer, []int, error)
	compile = func(layers []nn.Layer, inShape []int, tag string) ([]storedLayer, []int, error) {
		var out []storedLayer
		cur := inShape
		for li, l := range layers {
			if !Supported(l) {
				return nil, nil, fmt.Errorf("%w: %s (%s)", ErrUnsupported, l.Name(), l.Kind())
			}
			next, err := l.OutShape(cur)
			if err != nil {
				return nil, nil, err
			}
			sl := storedLayer{layer: l, inShape: cur, outShape: next}
			// numbered names a per-layer table by the tables stored so far.
			numbered := func(kind string) string { return t.tname(tag, fmt.Sprintf("%s%d", kind, len(sm.tableNames))) }
			pool := func(k, stride int) {
				sl.mappingTable, err = table(numbered("poolmap"), func(name string) error { return t.storePoolMapping(name, cur, k, stride) })
			}
			switch v := l.(type) {
			case *nn.Conv2D:
				err = weights(&sl, t.tname(tag, "kernel"), func(name string) error { return t.storeKernel(name, v) }, v.Bias)
				metaNames = append(metaNames, v.Name())
				metaKinds = append(metaKinds, v.Kind())
				for i, x := range []int{v.InC, v.OutC, v.K, v.Stride, v.Pad} {
					metaInts[i] = append(metaInts[i], int64(x))
				}
				// Mapping table for every conv except the very first layer
				// of the model (the input is encoded directly into patch
				// form by Algorithm 1).
				if err == nil && !(tag == "m" && li == 0 && len(out) == 0 && slices.Equal(cur, inShape)) {
					sl.mappingTable, err = table(sl.kernelTable+"_map", func(name string) error {
						return t.storeConvMapping(name, cur, v.K, v.Stride, v.Pad)
					})
				}
			case *nn.Deconv2D:
				err = weights(&sl, t.tname(tag, "deconv"), func(name string) error { return t.storeDeconvContrib(name, v, cur) }, v.Bias)
			case *nn.Linear:
				err = weights(&sl, t.tname(tag, "fc"), func(name string) error { return t.storeLinearKernel(name, v) }, v.Bias)
			case *nn.BasicAttention:
				convOrdinal++
				sl.ordinal = convOrdinal
				// The value weights take the bias table's place.
				name := t.tname(tag, fmt.Sprintf("attn%d", convOrdinal))
				ls := &nn.Linear{LayerName: v.Name() + "_score", In: v.Dim, Out: v.Dim, Weight: v.WScore}
				lv := &nn.Linear{LayerName: v.Name() + "_value", In: v.Dim, Out: v.Dim, Weight: v.WValue}
				if sl.kernelTable, err = table(name+"_score", func(name string) error { return t.storeLinearKernel(name, ls) }); err == nil {
					sl.biasTable, err = table(name+"_value", func(name string) error { return t.storeLinearKernel(name, lv) })
				}
			case *nn.BatchNorm:
				// Identity batch-stat norms need no parameters; anything
				// else (learned γ/β or frozen running statistics) is stored
				// in a per-channel parameter table joined at inference.
				if !bnIsIdentity(v) {
					sl.kernelTable, err = table(numbered("bnparams"), func(name string) error { return t.storeBNParams(name, v.Gamma, v.Beta, v.Mean, v.Var) })
				}
			case *nn.InstanceNorm:
				if !instanceNormIsIdentity(v) {
					sl.kernelTable, err = table(numbered("bnparams"), func(name string) error { return t.storeBNParams(name, v.Gamma, v.Beta, nil, nil) })
				}
			case *nn.MaxPool:
				pool(v.K, v.Stride)
			case *nn.AvgPool:
				pool(v.K, v.Stride)
			case *nn.ResidualBlock:
				mainLayers, _, err := compile(v.Main, cur, tag+"rm")
				if err != nil {
					return nil, nil, err
				}
				scLayers, _, err := compile(v.Shortcut, cur, tag+"rs")
				if err != nil {
					return nil, nil, err
				}
				sl.main = mainLayers
				sl.shortcut = scLayers
			case *nn.DenseBlock:
				var stages []nn.Layer
				for _, s := range v.Stages {
					stages = append(stages, s)
				}
				// compile each stage against its growing input channel count
				growIn := cur
				var stageStored []storedLayer
				for si, s := range stages {
					one, _, err := compile([]nn.Layer{s}, growIn, fmt.Sprintf("%sd%d", tag, si))
					if err != nil {
						return nil, nil, err
					}
					stageStored = append(stageStored, one[0])
					growIn = []int{growIn[0] + v.Growth, growIn[1], growIn[2]}
				}
				sl.main = stageStored
			}
			if err != nil {
				return nil, nil, err
			}
			out = append(out, sl)
			cur = next
		}
		return out, cur, nil
	}

	layers, _, err := compile(m.Layers, shapes[0], "m")
	if err != nil {
		return nil, err
	}
	metaSchema := sqldb.Schema{{Name: "LayerName", Type: sqldb.TString}, {Name: "Kind", Type: sqldb.TString}}
	metaCols := []*sqldb.Column{{Type: sqldb.TString, Strs: metaNames}, {Type: sqldb.TString, Strs: metaKinds}}
	for i, name := range []string{"InC", "OutC", "K", "Stride", "Pad"} {
		metaSchema = append(metaSchema, sqldb.ColumnDef{Name: name, Type: sqldb.TInt})
		metaCols = append(metaCols, intCol(metaInts[i]))
	}
	if err := t.createTable(metaName, metaSchema, metaCols...); err != nil {
		return nil, err
	}
	sm.layers = layers
	return sm, nil
}

// storeKernel vectorizes a convolution's kernels into the Kernel table
// {KernelID, OrderID, Value}, OrderID following the Im2Col element order.
func (t *Translator) storeKernel(name string, c *nn.Conv2D) error {
	n := c.InC * c.K * c.K
	kernel, order := make([]int64, 0, c.OutC*n), make([]int64, 0, c.OutC*n)
	value := make([]float64, 0, c.OutC*n)
	for ch := 0; ch < c.OutC; ch++ {
		row := c.KernelRow(ch)
		for o := 0; o < n; o++ {
			kernel = append(kernel, int64(ch))
			order = append(order, int64(o))
			value = append(value, row[o])
		}
	}
	return t.createTable(name, kernelSchema(), intCol(kernel), intCol(order), floatCol(value))
}

// kernelSchema is the Kernel table layout {KernelID, OrderID, Value}.
func kernelSchema() sqldb.Schema {
	return sqldb.Schema{
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "OrderID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	}
}

// createTable (re)creates a table and bulk-loads its columns with one
// Table.AppendColumns.
func (t *Translator) createTable(name string, schema sqldb.Schema, cols ...*sqldb.Column) error {
	t.DB.DropTable(name)
	tbl, err := t.DB.CreateTable(name, schema)
	if err != nil {
		return err
	}
	return tbl.AppendColumns(cols)
}

func intCol(v []int64) *sqldb.Column     { return &sqldb.Column{Type: sqldb.TInt, Ints: v} }
func floatCol(v []float64) *sqldb.Column { return &sqldb.Column{Type: sqldb.TFloat, Floats: v} }

// storeLinearKernel stores a fully-connected weight matrix in kernel form:
// the paper treats FC as a conv with kernel size 1 over the flattened
// input, so OrderID is simply the input feature index.
func (t *Translator) storeLinearKernel(name string, l *nn.Linear) error {
	w := l.Weight.Data()
	kernel, order := make([]int64, 0, l.Out*l.In), make([]int64, 0, l.Out*l.In)
	for o := 0; o < l.Out; o++ {
		for i := 0; i < l.In; i++ {
			kernel = append(kernel, int64(o))
			order = append(order, int64(i))
		}
	}
	return t.createTable(name, kernelSchema(), intCol(kernel), intCol(order), floatCol(w[:l.Out*l.In]))
}

// bnIsIdentity reports whether a batch norm has no learned parameters to
// store (γ=1, β=0, batch statistics).
func bnIsIdentity(bn *nn.BatchNorm) bool {
	if !bn.UseBatchStats {
		return false
	}
	for i := range bn.Gamma {
		if bn.Gamma[i] != 1 || bn.Beta[i] != 0 {
			return false
		}
	}
	return true
}

func instanceNormIsIdentity(in *nn.InstanceNorm) bool {
	for i := range in.Gamma {
		if in.Gamma[i] != 1 || in.Beta[i] != 0 {
			return false
		}
	}
	return true
}

// storeBNParams stores per-channel normalization parameters
// {KernelID, Gamma, Beta, Mean, Var}. Mean/Var are zero/one when the layer
// normalizes with batch statistics.
func (t *Translator) storeBNParams(name string, gamma, beta, mean, variance []float64) error {
	n := len(gamma)
	kernel, ms, vs := make([]int64, n), make([]float64, n), make([]float64, n)
	for i := range gamma {
		kernel[i] = int64(i)
		ms[i], vs[i] = 0, 1
		if mean != nil {
			ms[i] = mean[i]
		}
		if variance != nil {
			vs[i] = variance[i]
		}
	}
	return t.createTable(name, sqldb.Schema{
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "Gamma", Type: sqldb.TFloat},
		{Name: "Beta", Type: sqldb.TFloat},
		{Name: "Mean", Type: sqldb.TFloat},
		{Name: "Var", Type: sqldb.TFloat},
	}, intCol(kernel), floatCol(gamma), floatCol(beta[:n]), floatCol(ms), floatCol(vs))
}

// storeBias stores per-output-channel biases.
func (t *Translator) storeBias(name string, bias []float64) error {
	kernel := make([]int64, len(bias))
	for i := range kernel {
		kernel[i] = int64(i)
	}
	return t.createTable(name, sqldb.Schema{
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "Value", Type: sqldb.TFloat},
	}, intCol(kernel), floatCol(bias))
}

// storeDeconvContrib precomputes the transposed convolution's contribution
// table {TupleID, KernelID, OutID, Weight}: input element TupleID
// contributes Weight to output element (KernelID, OutID). Inference is then
// one join + group-by, the natural SQL form of a scatter.
func (t *Translator) storeDeconvContrib(name string, d *nn.Deconv2D, inShape []int) error {
	h, w := inShape[1], inShape[2]
	oh := (h-1)*d.Stride - 2*d.Pad + d.K
	ow := (w-1)*d.Stride - 2*d.Pad + d.K
	wd := d.Weight.Data()
	var tuple, kernel, outID []int64
	var weight []float64
	for ic := 0; ic < d.InC; ic++ {
		wrow := wd[ic*d.OutC*d.K*d.K : (ic+1)*d.OutC*d.K*d.K]
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				in := ic*h*w + y*w + x
				for oc := 0; oc < d.OutC; oc++ {
					for ky := 0; ky < d.K; ky++ {
						oy := y*d.Stride + ky - d.Pad
						if oy < 0 || oy >= oh {
							continue
						}
						for kx := 0; kx < d.K; kx++ {
							ox := x*d.Stride + kx - d.Pad
							if ox < 0 || ox >= ow {
								continue
							}
							tuple = append(tuple, int64(in))
							kernel = append(kernel, int64(oc))
							outID = append(outID, int64(oy*ow+ox))
							weight = append(weight, wrow[oc*d.K*d.K+ky*d.K+kx])
						}
					}
				}
			}
		}
	}
	return t.createTable(name, sqldb.Schema{
		{Name: "TupleID", Type: sqldb.TInt},
		{Name: "KernelID", Type: sqldb.TInt},
		{Name: "OutID", Type: sqldb.TInt},
		{Name: "Weight", Type: sqldb.TFloat},
	}, intCol(tuple), intCol(kernel), intCol(outID), floatCol(weight))
}

// StorageBytes estimates the relational footprint of the stored model —
// the DL2SQL column of Table IV. Each Int64/Float64 cell is 8 bytes.
func (sm *StoredModel) StorageBytes(db *sqldb.DB) int64 {
	var total int64
	for _, name := range sm.tableNames {
		t := db.GetTable(name)
		if t == nil {
			continue
		}
		rows := int64(t.NumRows())
		var rowBytes int64
		for _, c := range t.Schema {
			switch c.Type {
			case sqldb.TString:
				rowBytes += 16 // string header estimate
			default:
				rowBytes += 8
			}
		}
		total += rows * rowBytes
	}
	return total
}

// TableNames lists every relational table backing the stored model.
func (sm *StoredModel) TableNames() []string {
	return append([]string(nil), sm.tableNames...)
}

// Drop removes every relational table backing the stored model; runs
// create none.
func (sm *StoredModel) Drop() {
	for _, name := range sm.tableNames {
		sm.db.DropTable(name)
	}
}

// Stamp fingerprints the stored model's current state: the hash of its
// encoded weights mixed with the live version of every backing table, so a
// direct UPDATE or INSERT against a kernel table changes the stamp. It keys
// the model's memoised predictions.
func (sm *StoredModel) Stamp() uint64 {
	sm.hashOnce.Do(func() {
		if blob, err := nn.EncodeBytes(sm.Model); err == nil {
			sm.weightsHash = tensor.HashBytes(blob)
		}
	})
	h := sm.weightsHash
	for _, name := range sm.tableNames {
		if tb := sm.db.GetTable(name); tb != nil {
			h = tensor.HashMix(h, uint64(tb.Version()))
		} else {
			h = tensor.HashMix(h, ^uint64(0))
		}
	}
	return h
}
