package sqldb

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// benchFilterJoinDB builds the hot-path fixture: a selective vectorized
// filter feeding a hash join, the inner loop of every collaborative query.
func benchFilterJoinDB(b *testing.B) *DB {
	b.Helper()
	db := New()
	mustExec := func(sql string) {
		b.Helper()
		if _, err := db.Exec(sql); err != nil {
			b.Fatal(err)
		}
	}
	mustExec("CREATE TABLE video (videoID Int64, fabricID Int64, score Float64)")
	mustExec("CREATE TABLE fabric (fabricID Int64, grade Int64)")
	for i := 0; i < 2000; i++ {
		mustExec(fmt.Sprintf("INSERT INTO video VALUES (%d, %d, %d.5)", i, i%50, i%100))
	}
	for i := 0; i < 50; i++ {
		mustExec(fmt.Sprintf("INSERT INTO fabric VALUES (%d, %d)", i, i%5))
	}
	return db
}

const benchFilterJoinSQL = "SELECT V.videoID, F.grade FROM video V, fabric F " +
	"WHERE V.fabricID = F.fabricID AND V.score > 50 AND F.grade < 3"

// BenchmarkFilterJoinTracingDisabled measures the hot filter/join path with
// no trace store armed — the default embedded configuration. Compare
// against BenchmarkFilterJoinTracingEnabled to bound the cost of the
// instrumentation hooks; the disabled delta versus an uninstrumented
// executor is one nil check per plan node.
func BenchmarkFilterJoinTracingDisabled(b *testing.B) {
	db := benchFilterJoinDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(benchFilterJoinSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterJoinTracingEnabled measures the same path with a keep-all
// trace store: every query builds, flattens and retains its per-operator
// span tree (the store's ring bounds what is kept).
func BenchmarkFilterJoinTracingEnabled(b *testing.B) {
	db := benchFilterJoinDB(b)
	db.Traces = obs.NewTraceStore(obs.TraceStoreConfig{Seed: 1, SampleEvery: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(benchFilterJoinSQL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterJoinExplainAnalyze measures the per-node stats collector.
func BenchmarkFilterJoinExplainAnalyze(b *testing.B) {
	db := benchFilterJoinDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("EXPLAIN ANALYZE " + benchFilterJoinSQL); err != nil {
			b.Fatal(err)
		}
	}
}
