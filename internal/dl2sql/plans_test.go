package dl2sql

import (
	"fmt"
	"testing"

	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// planModels are the repository's models — every student variant and the
// shallowest ResNet — plus everyOperatorModel, at side 8.
func planModels(t *testing.T) map[string]*nn.Model {
	t.Helper()
	models := map[string]*nn.Model{"every": everyOperatorModel()}
	repo := modelrepo.NewRepository(8, 3)
	for _, name := range repo.Names() {
		models[name] = repo.Get(name).Model
	}
	resnet, err := modelrepo.NewResNet(5, modelrepo.TaskTextileType, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	models["resnet5"] = resnet
	return models
}

// foldsSubquery reports whether a statement's SELECTs or UPDATE
// expressions hold a scalar or IN subquery.
func foldsSubquery(st sqldb.Stmt) bool {
	found := false
	find := func(e sqldb.Expr) (sqldb.Expr, error) {
		switch x := e.(type) {
		case *sqldb.SubqueryExpr:
			found = true
		case *sqldb.InExpr:
			found = found || x.Sub != nil
		}
		return e, nil
	}
	sel := func(s *sqldb.SelectStmt) {
		if s != nil {
			_, _ = sqldb.RewriteSelect(s, find)
		}
	}
	switch t := st.(type) {
	case *sqldb.SelectStmt:
		sel(t)
	case *sqldb.CreateTableStmt:
		sel(t.As)
	case *sqldb.InsertStmt:
		sel(t.Query)
	case *sqldb.UpdateStmt:
		_, _ = sqldb.Rewrite(t.Where, find)
		for _, e := range t.Set {
			_, _ = sqldb.Rewrite(e, find)
		}
	}
	return found
}

// TestCompiledStepsFoldNoSubquery: no compiled step of any variant of the
// models holds a scalar or IN subquery, so no step's plan is data and
// every one can be kept.
func TestCompiledStepsFoldNoSubquery(t *testing.T) {
	for name, m := range planModels(t) {
		sm, err := NewTranslator(sqldb.New(), "p").StoreModel(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, key := range []sampleKey{false, true} {
			for _, pj := range []PreJoinStrategy{PreJoinNone, PreJoinMapping, PreJoinInput} {
				prog, err := sm.compile(variant{key: key, preJoin: pj})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", name, key, pj, err)
				}
				for _, s := range append(prog.steps, prog.classify) {
					stmts, err := sqldb.ParseMulti(s.sql)
					if err != nil {
						t.Fatalf("%s: step %s: %v", name, s.label, err)
					}
					for _, st := range stmts {
						if foldsSubquery(st) {
							t.Errorf("%s/%v/%v: step %s folds a subquery:\n%s", name, key, pj, s.label, s.sql)
						}
					}
				}
			}
		}
	}
}

// TestSecondInferPlansNoStep: once a variant's program has run, running
// it again plans none of its statements — each runs from its kept plans,
// over the relations the new run binds.
func TestSecondInferPlansNoStep(t *testing.T) {
	for name, m := range planModels(t) {
		if name != "every" && name != "resnet5" && name != "defect_detection_v1" {
			continue // the student variants share one shape
		}
		for _, pj := range []PreJoinStrategy{PreJoinNone, PreJoinMapping, PreJoinInput} {
			for _, n := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%v/batch%d", name, pj, n), func(t *testing.T) {
					db := sqldb.New()
					db.History = obs.NewQueryHistory(4096)
					tr := NewTranslator(db, "p")
					tr.PreJoin = pj
					sm, err := tr.StoreModel(m)
					if err != nil {
						t.Fatal(err)
					}
					ins := batchInputs(m.InputShape, n, 11)
					infer := func() {
						t.Helper()
						if n == 1 {
							_, err = tr.InferTensor(sm, ins[0])
						} else {
							_, err = tr.InferBatch(sm, ins)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					infer()
					first := len(db.History.Snapshot())
					infer()
					kept := 0
					for _, r := range db.History.Snapshot()[first:] {
						switch r.CacheState {
						case "kept":
							kept++
						case "":
						default:
							t.Errorf("second run planned (%s): %s", r.CacheState, r.SQL)
						}
					}
					if kept == 0 {
						t.Fatal("the second run recorded no kept plan")
					}
				})
			}
		}
	}
}
