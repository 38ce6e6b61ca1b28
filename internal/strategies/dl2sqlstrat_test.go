package strategies

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colquery"
	"repro/internal/faults"
	"repro/internal/modelrepo"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// exactRows renders a result's rows with exact float bits, sorted.
func exactRows(res *sqldb.Result) []string {
	rows := make([]string, res.NumRows())
	for i := range rows {
		var sb strings.Builder
		for _, c := range res.Cols {
			d := c.Get(i)
			if d.T == sqldb.TFloat {
				fmt.Fprintf(&sb, "f:%016x|", math.Float64bits(d.F))
			} else {
				fmt.Fprintf(&sb, "%d:%v|", d.T, d)
			}
		}
		rows[i] = sb.String()
	}
	sort.Strings(rows)
	return rows
}

// resultsBitIdentical compares two results schema-exactly and value
// bit-exactly, in any row order.
func resultsBitIdentical(a, b *sqldb.Result) bool {
	if len(a.Schema) != len(b.Schema) {
		return false
	}
	for i, c := range a.Schema {
		if b.Schema[i].Name != c.Name || b.Schema[i].Type != c.Type {
			return false
		}
	}
	return slices.Equal(exactRows(a), exactRows(b))
}

// tablesWith lists db's tables whose names contain substr.
func tablesWith(db *sqldb.DB, substr string) []string {
	var out []string
	for _, name := range db.TableNames() {
		if strings.Contains(name, substr) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// storedTables lists the tables of every model env has stored.
func storedTables(env *Context) []string {
	env.models.mu.Lock()
	defer env.models.mu.Unlock()
	var out []string
	for _, e := range env.models.byHash {
		if e.sm != nil {
			out = append(out, e.sm.TableNames()...)
		}
	}
	sort.Strings(out)
	return out
}

// checkCatalog fails unless db holds exactly the dataset's tables and the
// tables of the models env has stored: no run leaves a relation behind.
func checkCatalog(t *testing.T, env *Context, dataset []string, after string) {
	t.Helper()
	want := append(slices.Clone(dataset), storedTables(env)...)
	sort.Strings(want)
	if got := tablesWith(env.Dataset.DB, ""); !slices.Equal(got, want) {
		t.Fatalf("after %s the catalog is %v, want %v", after, got, want)
	}
}

// TestDL2SQLConcurrentExecute runs DL2SQL and DL2SQL-OP over Types 1–4
// from four goroutines on one Context whose models are not yet stored.
// Every answer is bit-identical to a sequential run and each of the two
// bound artifacts is stored exactly once. Afterwards, and after a run
// cancelled partway through and a DB-PyTorch run, the catalog holds
// exactly the dataset's and the stored models' tables.
func TestDL2SQLConcurrentExecute(t *testing.T) {
	type job struct {
		optimized bool
		typ       colquery.QueryType
		q         *colquery.Query
		want      *sqldb.Result
	}
	seq := testContext(t)
	var jobs []job
	for _, optimized := range []bool{false, true} {
		s := &DL2SQL{Optimized: optimized}
		for typ := colquery.Type1; typ <= colquery.Type4; typ++ {
			q, err := colquery.GenerateAnalyzed(typ, colquery.TemplateParams{Selectivity: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := s.Execute(context.Background(), seq, q)
			if err != nil {
				t.Fatalf("sequential %s on %v: %v", s.Name(), typ, err)
			}
			jobs = append(jobs, job{optimized: optimized, typ: typ, q: q, want: want})
		}
	}

	env := testContext(t)
	env.Metrics = obs.NewRegistry()
	dataset := tablesWith(env.Dataset.DB, "")
	const goroutines = 4
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines*len(jobs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Each goroutine runs half the jobs from its own offset, so
			// every job runs twice, overlapping other jobs and itself.
			for k := 0; k < len(jobs)/2; k++ {
				j := jobs[(k+g*len(jobs)/goroutines)%len(jobs)]
				// A strategy value carries per-execution state, so every
				// execution gets its own, as the server's requests do.
				s := &DL2SQL{Optimized: j.optimized}
				got, _, err := s.Execute(context.Background(), env, j.q)
				switch {
				case err != nil:
					errs <- fmt.Errorf("%s on %v: %w", s.Name(), j.typ, err)
				case !resultsBitIdentical(got, j.want):
					errs <- fmt.Errorf("%s on %v: not bit-identical to the sequential run", s.Name(), j.typ)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := env.Metrics.Counter(obs.MetricDL2SQLModelsStored).Value(); n != 2 {
		t.Errorf("stored %d models for 2 bound artifacts", n)
	}
	checkCatalog(t, env, dataset, "the concurrent runs")

	db := env.Dataset.DB
	db.Faults = faults.New(1, faults.Rule{Point: faults.PointMorselDelay, Delay: time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, _, err := (&DL2SQL{}).Execute(ctx, env, jobs[0].q); err == nil {
		t.Fatal("a run past its deadline succeeded")
	}
	checkCatalog(t, env, dataset, "a cancelled run")
	db.Faults = nil
	if _, _, err := (&DBPyTorch{}).Execute(context.Background(), env, jobs[0].q); err != nil {
		t.Fatal(err)
	}
	checkCatalog(t, env, dataset, "a DB-PyTorch run")
}

// TestDL2SQLFaultOnSecondModel: a translate fault on the second of two
// nUDFs fails the query, leaves no table beyond the first model's stored
// tables, and the next run, without the fault, answers as DB-UDF does.
func TestDL2SQLFaultOnSecondModel(t *testing.T) {
	env := testContext(t)
	q, err := colquery.Analyze(`SELECT patternID, F.transID AS transID FROM fabric F, video V
		WHERE F.transID = V.transID and V.date > '2021-01-01' and V.date < '2021-01-20'
		and nUDF_detect(V.keyframe) = FALSE and nUDF_classify(V.keyframe) = 'Floral Pattern'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.UDFNames) != 2 {
		t.Fatalf("query uses nUDFs %v, want two", q.UDFNames)
	}
	db := env.Dataset.DB
	before := db.TableNames()
	env.Faults = faults.New(1, faults.Rule{Point: faults.PointDL2SQLTranslate, After: 2, Count: 1})
	if _, _, err := (&DL2SQL{}).Execute(context.Background(), env, q); err == nil {
		t.Fatal("the translate fault on the second model did not fail the query")
	}
	stored := storedTables(env)
	if len(stored) == 0 {
		t.Fatal("the first model was not stored")
	}
	want := append(slices.Clone(before), stored...)
	sort.Strings(want)
	got := db.TableNames()
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Fatalf("tables after the failed run %v, want the fixture's plus the first model's %v", got, want)
	}

	res, _, err := (&DL2SQL{}).Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	udf, _, err := (&DBUDF{}).Execute(context.Background(), env, q)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(res) != resultKey(udf) {
		t.Fatalf("DL2SQL after the fault differs from DB-UDF:\n%s\nvs\n%s", resultKey(res), resultKey(udf))
	}
}

// TestDL2SQLRebindServesNewModel: rebinding an nUDF to another model makes
// the next DL2SQL-OP and DB-UDF runs answer with that model, and drops the
// previous model's tables and decoded model once no binding references its
// artifact.
func TestDL2SQLRebindServesNewModel(t *testing.T) {
	env := testContext(t)
	q, err := colquery.GenerateAnalyzed(colquery.Type3, colquery.TemplateParams{Selectivity: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	op := &DL2SQL{Optimized: true}
	ctx := context.Background()
	resA, _, err := op.Execute(ctx, env, q)
	if err != nil {
		t.Fatal(err)
	}
	udfA, _, err := (&DBUDF{}).Execute(ctx, env, q)
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(udfA) != resultKey(resA) {
		t.Fatal("DB-UDF and DL2SQL-OP disagree on model A")
	}
	hashA := env.Bindings["nudf_detect"].artifactHash
	prefixA := fmt.Sprintf("dl2sql_m%016x", hashA)
	if len(tablesWith(env.Dataset.DB, prefixA)) == 0 {
		t.Fatal("model A was not stored")
	}
	if e := env.models.entry(hashA); e.model == nil {
		t.Fatal("model A was not decoded")
	}

	// Model B is model A with its classifier biased to "defect", so no
	// keyframe passes the query's nUDF_detect(...) = FALSE.
	mB, err := nn.DecodeBytes(env.Bindings["nudf_detect"].Artifact)
	if err != nil {
		t.Fatal(err)
	}
	mB.Layers[len(mB.Layers)-2].(*nn.Linear).Bias[1] += 100
	entry := &modelrepo.Entry{Name: "detect_b", Task: modelrepo.TaskDefectDetection, Model: mB}
	if err := entry.Calibrate(20, 8, 1234); err != nil {
		t.Fatal(err)
	}
	if err := env.Bind("nudf_detect", entry, UDFBool); err != nil {
		t.Fatal(err)
	}
	if err := env.HintProvider.RegisterModel("nudf_detect", entry); err != nil {
		t.Fatal(err)
	}
	if left := tablesWith(env.Dataset.DB, prefixA); len(left) != 0 {
		t.Fatalf("model A's tables remain after rebinding: %v", left)
	}
	if _, ok := env.models.byHash[hashA]; ok {
		t.Fatal("model A's decoded model remains after rebinding")
	}
	resB, _, err := op.Execute(ctx, env, q)
	if err != nil {
		t.Fatal(err)
	}
	udfB, _, err := (&DBUDF{}).Execute(ctx, env, q)
	if err != nil {
		t.Fatal(err)
	}
	if resA.NumRows() == 0 || udfB.NumRows() != 0 {
		t.Fatalf("model A keeps %d rows, model B %d: the test needs some and none", resA.NumRows(), udfB.NumRows())
	}
	if resultKey(resB) != resultKey(udfB) {
		t.Fatalf("DL2SQL-OP after rebinding differs from DB-UDF on model B:\n%s\nvs\n%s", resultKey(resB), resultKey(udfB))
	}
}
