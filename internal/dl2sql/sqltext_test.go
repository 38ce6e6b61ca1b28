package dl2sql

import (
	"fmt"
	"hash/fnv"
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

// TestPipelineSQLTextPinned pins the text of every statement the pipeline
// emits: the FNV-1a of the step spans' sql attributes, each step's SELECT
// with the fixed name it binds, for the side-8 student model and everyOperatorModel, per pre-join
// strategy, for one input through Infer and three through InferBatch. The
// constants were re-recorded when the steps became SELECTs bound as
// statement-scoped relations: ReLU a projection, the dense concatenation a
// UNION ALL.
func TestPipelineSQLTextPinned(t *testing.T) {
	models := map[string]*nn.Model{
		"student": modelrepo.NewStudentModel(modelrepo.TaskDefectDetection, 8, 7),
		"every":   everyOperatorModel(),
	}
	want := map[string]uint64{
		"student/none/infer":             0xfc78d36b331fd985,
		"student/none/batch3":            0x3ba93d4d5489d9fe,
		"student/prejoin-mapping/infer":  0x436e6044aa98b680,
		"student/prejoin-mapping/batch3": 0x5a4ce448d7109b47,
		"student/prejoin-input/infer":    0x13803f6ab0c85a33,
		"student/prejoin-input/batch3":   0xd216b634210ccf67,
		"every/none/infer":               0x6823b057c8f3241a,
		"every/none/batch3":              0xda8a445d3f55758e,
		"every/prejoin-mapping/infer":    0x914080d9f3b26f94,
		"every/prejoin-mapping/batch3":   0xdaeceb0a1cdab1d3,
		"every/prejoin-input/infer":      0x914080d9f3b26f94,
		"every/prejoin-input/batch3":     0xdaeceb0a1cdab1d3,
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
					sm, err := tr.StoreModel(m)
					if err != nil {
						t.Fatal(err)
					}
					steps := stepSQL(t, tr, func() (err error) {
						if mode == "infer" {
							_, _, err = tr.Infer(sm, ins[0])
						} else {
							_, err = tr.InferBatch(sm, ins)
						}
						return err
					})
					h := fnv.New64a()
					text := strings.Join(steps, "\n")
					h.Write([]byte(text))
					if got := h.Sum64(); got != want[key] {
						t.Errorf("SQL text hash = %#x, want %#x\n%s", got, want[key], text)
					}
				})
			}
		}
	}
}
