package sqldb

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestConcurrentDeleteRemovesExactRows pins that DELETE … WHERE finds and
// removes its rows under one write lock: two goroutines delete disjoint key
// sets from one table while a third appends, and exactly the rows nobody
// deleted survive. When the rows were found under the read lock and removed
// by index afterwards, a writer in between shifted the indices and the wrong
// rows went.
func TestConcurrentDeleteRemovesExactRows(t *testing.T) {
	const base, appended = 600, 600
	db := New()
	tbl, err := db.CreateTable("t", Schema{{Name: "k", Type: TInt}, {Name: "v", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for k := 0; k < base; k++ {
		if err := tbl.AppendRow([]Datum{Int(int64(k)), Str(fmt.Sprintf("v%d", k))}); err != nil {
			t.Fatal(err)
		}
		if k%3 == 2 {
			want = append(want, fmt.Sprintf("%d/v%d", k, k))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < base; k += 3 {
				if _, err := db.Exec(fmt.Sprintf("DELETE FROM t WHERE k = %d", k)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appended; i++ {
			k := base + i
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'a%d')", k, k)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < appended; i++ {
		want = append(want, fmt.Sprintf("%d/a%d", base+i, base+i))
	}
	res := mustExec(t, db, "SELECT k, v FROM t")
	got := make([]string, res.NumRows())
	for i := range got {
		got[i] = fmt.Sprintf("%d/%s", res.Cols[0].Get(i).I, res.Cols[1].Get(i).S)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%d rows survive, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("surviving row %d = %s, want %s", i, got[i], want[i])
		}
	}
}
