package colquery

import (
	"strings"
	"testing"

	"repro/internal/sqldb"
)

func TestPaperType1Example(t *testing.T) {
	q, err := Analyze(`SELECT sum(meter) FROM fabric F, video V
		WHERE F.printdate > '2021-01-01' and F.printdate < '2021-1-31'
		and V.date > '2021-01-01' and V.date < '2021-1-31'
		and nUDF_classify(V.keyframe) = 'Floral Pattern'`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type1 {
		t.Fatalf("type = %v, want Type 1", q.Type)
	}
	if q.Type.Difficulty() != "Easy" {
		t.Fatalf("difficulty = %s", q.Type.Difficulty())
	}
}

func TestPaperType2Example(t *testing.T) {
	q, err := Analyze(`SELECT patternID, sum(if(nUDF_detect(V.keyframe) = TRUE, 1, 0)) / sum(meter)
		FROM fabric F, video V
		WHERE F.printdate > '2021-01-01' and F.printdate < '2021-1-31'
		and F.transID = V.transID
		and V.date > '2021-01-01' and V.date < '2021-1-31'
		GROUP BY patternID`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type2 {
		t.Fatalf("type = %v, want Type 2", q.Type)
	}
}

func TestPaperType3Example(t *testing.T) {
	q, err := Analyze(`SELECT patternID, transID FROM fabric F, video V
		WHERE F.humidity > 80 and F.temperature > 30
		and F.printdate > '2021-01-01' and F.printdate < '2021-1-31'
		and F.transID = V.transID
		and V.date > '2021-01-01' and V.date < '2021-1-31'
		and nUDF_detect(V.keyframe) = FALSE`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type3 {
		t.Fatalf("type = %v, want Type 3", q.Type)
	}
	if q.Type.Difficulty() != "Medium" {
		t.Fatalf("difficulty = %s", q.Type.Difficulty())
	}
}

func TestPaperType4Example(t *testing.T) {
	q, err := Analyze(`SELECT patternID FROM fabric F, video V
		WHERE F.printdate > '2021-01-01' and F.printdate < '2021-1-31'
		and F.transID = V.transID
		and V.date > '2021-01-01' and V.date < '2021-1-31'
		and F.patternID != nUDF_recog(V.keyframe)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type4 {
		t.Fatalf("type = %v, want Type 4", q.Type)
	}
	if q.Type.Difficulty() != "Hard" {
		t.Fatalf("difficulty = %s", q.Type.Difficulty())
	}
	if !q.UDFs[0].InJoin {
		t.Fatal("type 4 usage must be marked InJoin")
	}
}

// The classifier's relation collectors must see through CASE: a
// CASE-wrapped Type 4 comparison still joins the nUDF output against a
// fabric column, and a CASE-wrapped fabric filter still gates which
// keyframes reach the model.
func TestCaseWrappedPredicatesClassify(t *testing.T) {
	q, err := Analyze(`SELECT patternID FROM fabric F, video V
		WHERE F.printdate > '2021-01-01' and F.printdate < '2021-1-31'
		and F.transID = V.transID
		and V.date > '2021-01-01' and V.date < '2021-1-31'
		and CASE WHEN F.patternID != nUDF_recog(V.keyframe) THEN 1 ELSE 0 END = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type4 || !q.UDFs[0].InJoin {
		t.Fatalf("CASE-wrapped join usage: type = %v, InJoin = %v; want Type 4 in a join", q.Type, q.UDFs[0].InJoin)
	}
	q, err = Analyze(`SELECT patternID, F.transID AS transID FROM fabric F, video V
		WHERE CASE WHEN F.meter > 10 THEN 1 ELSE 0 END = 1
		and F.transID = V.transID
		and V.date > '2021-01-01' and V.date < '2021-1-31'
		and nUDF_detect(V.keyframe) = FALSE`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type3 {
		t.Fatalf("CASE-wrapped fabric filter: type = %v, want Type 3", q.Type)
	}
}

func TestIntroQueryClassifiesType3(t *testing.T) {
	// The paper's opening printing-fault query.
	q, err := Analyze(`SELECT patternID, transID FROM fabric F, video V
		WHERE F.humidity > 80 and F.temperature > 30
		and F.printdate > '2021-01-01' and F.printdate < '2021-1-31'
		and F.transID = V.transID
		and V.date > '2021-01-01' and V.date < '2021-1-31'
		and nUDF_detect(V.keyframe) = FALSE`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type3 {
		t.Fatalf("type = %v", q.Type)
	}
}

func TestEqualsLiteralExtraction(t *testing.T) {
	q, err := Analyze(`SELECT transID FROM video V WHERE nUDF_classify(V.keyframe) = 'Floral Pattern'`)
	if err != nil {
		t.Fatal(err)
	}
	u := q.UDFs[0]
	if u.EqualsLiteral == nil || u.EqualsLiteral.S != "Floral Pattern" {
		t.Fatalf("literal = %v", u.EqualsLiteral)
	}
	if u.Arg != "V.keyframe" {
		t.Fatalf("arg = %q", u.Arg)
	}
}

func TestMultipleUDFs(t *testing.T) {
	q, err := Analyze(`SELECT patternID, transID FROM fabric F, video V
		WHERE F.transID = V.transID and nUDF_detect(V.keyframe) = TRUE
		and nUDF_classify(V.keyframe) = 'Floral Pattern'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.UDFNames) != 2 {
		t.Fatalf("udf names = %v", q.UDFNames)
	}
}

func TestNonCollaborativeRejected(t *testing.T) {
	if _, err := Analyze(`SELECT 1`); err == nil {
		t.Fatal("plain query must be rejected")
	}
	if _, err := Analyze(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("non-SELECT must be rejected")
	}
}

func TestIsNUDF(t *testing.T) {
	if !IsNUDF("nUDF_detect") || !IsNUDF("NUDF_X") {
		t.Fatal("nUDF names must match")
	}
	if IsNUDF("sum") || IsNUDF("udf_detect") {
		t.Fatal("non-nUDF names must not match")
	}
}

func TestTemplatesRoundTrip(t *testing.T) {
	for _, typ := range []QueryType{Type1, Type2, Type3, Type4} {
		q, err := GenerateAnalyzed(typ, TemplateParams{Selectivity: 0.001})
		if err != nil {
			t.Fatalf("type %v: %v", typ, err)
		}
		if q.Type != typ {
			t.Fatalf("template %v classified as %v", typ, q.Type)
		}
	}
}

func TestTemplatesParse(t *testing.T) {
	for _, typ := range []QueryType{Type1, Type2, Type3, Type4} {
		sql, err := Generate(typ, TemplateParams{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sqldb.Parse(sql); err != nil {
			t.Fatalf("type %v SQL does not parse: %v\n%s", typ, err, sql)
		}
	}
}

func TestTemplateCustomUDFNames(t *testing.T) {
	sql, err := Generate(Type3, TemplateParams{DetectUDF: "nUDF_defect_detection_v1"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "nUDF_defect_detection_v1") {
		t.Fatalf("custom UDF name missing:\n%s", sql)
	}
}

func TestMixProducesAllTypes(t *testing.T) {
	qs, err := Mix(2, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 8 {
		t.Fatalf("mix size = %d", len(qs))
	}
	counts := map[QueryType]int{}
	for _, q := range qs {
		counts[q.Type]++
	}
	for _, typ := range []QueryType{Type1, Type2, Type3, Type4} {
		if counts[typ] != 2 {
			t.Fatalf("type %v count = %d", typ, counts[typ])
		}
	}
}

func TestUDFInSelectDetected(t *testing.T) {
	q, err := Analyze(`SELECT nUDF_classify(V.keyframe) AS label, count(*) FROM video V GROUP BY nUDF_classify(V.keyframe)`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type2 {
		t.Fatalf("select-clause UDF should classify Type 2, got %v", q.Type)
	}
	found := false
	for _, u := range q.UDFs {
		if u.InSelect {
			found = true
		}
	}
	if !found {
		t.Fatal("InSelect usage not marked")
	}
}

func TestDeviceTableTemplate(t *testing.T) {
	q, err := GenerateAnalyzed(Type3, TemplateParams{Selectivity: 0.05, UseDeviceTable: true})
	if err != nil {
		t.Fatal(err)
	}
	if q.Type != Type3 {
		t.Fatalf("device variant classified as %v", q.Type)
	}
	if !strings.Contains(q.SQL, "device D") || !strings.Contains(q.SQL, "D.humidity") {
		t.Fatalf("device variant missing device table:\n%s", q.SQL)
	}
}
