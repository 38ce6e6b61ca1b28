package dl2sql

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"strings"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/sqldb"
)

// everyOperatorModel chains every operator the translator supports: a flat
// first layer (learned BN), a mapped convolution, frozen-statistics BN,
// both residual forms, both poolings, a dense block, learned instance norm,
// a deconvolution, sigmoid, global pooling, flatten, full connection,
// attention and softmax.
func everyOperatorModel() *nn.Model {
	bn0 := nn.NewBatchNorm("bn0", 2)
	bn0.Gamma[0], bn0.Gamma[1] = 1.5, 0.75
	bn0.Beta[0], bn0.Beta[1] = 0.2, -0.1
	bn1 := nn.NewBatchNorm("bn1", 4)
	bn1.UseBatchStats = false
	for i := range bn1.Gamma {
		bn1.Gamma[i] = 1 + 0.25*float64(i)
		bn1.Beta[i] = 0.05 * float64(i)
		bn1.Mean[i] = 0.1 * float64(i)
		bn1.Var[i] = 0.9 + 0.1*float64(i)
	}
	in1 := nn.NewInstanceNorm("in1", 8)
	for i := range in1.Gamma {
		in1.Gamma[i] = 0.5 + 0.125*float64(i)
		in1.Beta[i] = -0.05 * float64(i)
	}
	m := nn.NewModel("every", []int{2, 6, 6}, nil)
	m.Add(
		bn0,
		nn.NewConv2D("c1", 2, 4, 3, 1, 1, 40),
		bn1,
		&nn.ReLU{LayerName: "r1"},
		nn.NewResidualBlock("rb", 4, 4, 1, 41),
		&nn.MaxPool{LayerName: "mp", K: 2, Stride: 2},
		nn.NewDenseBlock("db", 4, 2, 2, 44),
		in1,
		nn.NewDeconv2D("dc", 8, 2, 2, 2, 0, 46),
		&nn.Sigmoid{LayerName: "sig"},
		&nn.AvgPool{LayerName: "ap", K: 2, Stride: 2},
		nn.NewIdentityResidualBlock("ib", 2, 47),
		&nn.GlobalAvgPool{LayerName: "gap"},
		&nn.Flatten{LayerName: "fl"},
		nn.NewLinear("fc", 2, 4, 50),
		nn.NewBasicAttention("att", 4, 51),
		&nn.Softmax{LayerName: "sm"},
	)
	return m
}

var tempTable = regexp.MustCompile(`p_tmp_[a-z0-9]+_[0-9]+`)

// normalizedSQL joins a pipeline's statements with temp tables renamed
// T1, T2, … in order of first appearance.
func normalizedSQL(stmts []string) string {
	names := map[string]string{}
	return tempTable.ReplaceAllStringFunc(strings.Join(stmts, "\n"), func(s string) string {
		if _, ok := names[s]; !ok {
			names[s] = fmt.Sprintf("T%d", len(names)+1)
		}
		return names[s]
	})
}

// TestPipelineSQLTextPinned pins the text of every statement the pipeline
// emits: the FNV-1a of TraceSQL, temp tables renamed, for the side-8
// student model and everyOperatorModel, per pre-join strategy, for one
// input through Infer and three through InferBatch. The batch constants
// were recorded from the separately written batched statements that the
// shared templates replaced; the one-input constants were re-recorded when
// the one-input softmax took the batch form's derived-table shape.
func TestPipelineSQLTextPinned(t *testing.T) {
	models := map[string]*nn.Model{
		"student": modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 7),
		"every":   everyOperatorModel(),
	}
	want := map[string]uint64{
		"student/none/infer":             0x475efe3b932f5000,
		"student/none/batch3":            0xd9da2a6e39414634,
		"student/prejoin-mapping/infer":  0x47c4017daf29f1dd,
		"student/prejoin-mapping/batch3": 0xc1699d84f46881e9,
		"student/prejoin-input/infer":    0x6dcece07d13956bc,
		"student/prejoin-input/batch3":   0xe6eb8e24e2d051e3,
		"every/none/infer":               0x3306413e83d0b8bd,
		"every/none/batch3":              0x4f55828bcb549e88,
		"every/prejoin-mapping/infer":    0xd5d6517ec38b17a5,
		"every/prejoin-mapping/batch3":   0x3d220131a65cb243,
		"every/prejoin-input/infer":      0xd5d6517ec38b17a5,
		"every/prejoin-input/batch3":     0x3d220131a65cb243,
	}
	for _, name := range []string{"student", "every"} {
		m := models[name]
		ins := batchInputs(m.InputShape, 3, 90)
		for _, strat := range []PreJoinStrategy{PreJoinNone, PreJoinMapping, PreJoinInput} {
			for _, mode := range []string{"infer", "batch3"} {
				key := fmt.Sprintf("%s/%v/%s", name, strat, mode)
				t.Run(key, func(t *testing.T) {
					tr := NewTranslator(sqldb.New(), "p")
					tr.PreJoin = strat
					tr.Trace = true
					sm, err := tr.StoreModel(m)
					if err != nil {
						t.Fatal(err)
					}
					if mode == "infer" {
						_, _, err = tr.Infer(sm, ins[0])
					} else {
						_, err = tr.InferBatch(sm, ins)
					}
					if err != nil {
						t.Fatal(err)
					}
					h := fnv.New64a()
					h.Write([]byte(normalizedSQL(tr.TraceSQL)))
					if got := h.Sum64(); got != want[key] {
						t.Errorf("SQL text hash = %#x, want %#x\n%s", got, want[key], normalizedSQL(tr.TraceSQL))
					}
				})
			}
		}
	}
}
