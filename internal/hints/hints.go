// Package hints implements Section IV-B: it derives optimizer hints for
// collaborative queries from the offline class-prediction histograms
// (Eqs. 9–10) and the customized cost model, and encodes the paper's three
// rules:
//
//  1. An nUDF predicate is either evaluated during the table scan or delayed
//     until after the cheap relational predicates, whichever the cost
//     comparison favours.
//  2. An nUDF in the SELECT clause is evaluated as the last operator. The
//     engine evaluates the SELECT list above every filter and join, so this
//     rule holds without a hint.
//  3. An nUDF in a join condition switches the join to the symmetric hash
//     join algorithm.
package hints

import (
	"strings"

	"repro/internal/colquery"
	"repro/internal/costmodel"
	"repro/internal/modelrepo"
	"repro/internal/sqldb"
)

// Provider turns analyzed collaborative queries into sqldb.QueryHints.
type Provider struct {
	// Histograms maps a UDF name (lower-cased) to the class histogram of
	// its model, built during offline training.
	Histograms map[string]*modelrepo.ClassHistogram
	// UDFCosts maps a UDF name to its per-call cost in abstract units,
	// estimated by the customized cost model from the model geometry.
	UDFCosts map[string]float64
}

// NewProvider creates an empty provider.
func NewProvider() *Provider {
	return &Provider{
		Histograms: map[string]*modelrepo.ClassHistogram{},
		UDFCosts:   map[string]float64{},
	}
}

// RegisterModel wires a repository entry to a UDF name: its histogram
// supplies selectivities and its cost-model estimate supplies the per-call
// cost.
func (p *Provider) RegisterModel(udfName string, entry *modelrepo.Entry) error {
	key := strings.ToLower(udfName)
	if entry.Histogram != nil {
		p.Histograms[key] = entry.Histogram
	}
	mc, err := costmodel.EstimateModel(entry.Model)
	if err != nil {
		return err
	}
	p.UDFCosts[key] = mc.Total
	return nil
}

// Selectivity applies Eq. (10): for a predicate `udf(x) = lit`, the
// estimated fraction of rows satisfying it is Pr(class(lit)). Boolean
// literals map onto binary classifiers' class indices (FALSE=class 0,
// TRUE=class 1, matching the "Not Found"/"Defect" layout). Inequality
// usages and unknown classes fall back to the uniform prior.
func (p *Provider) Selectivity(udfName string, equalsTo *sqldb.Datum) float64 {
	h := p.Histograms[strings.ToLower(udfName)]
	if h == nil {
		return 0.5
	}
	if equalsTo == nil {
		return 0.5
	}
	switch equalsTo.T {
	case sqldb.TString:
		if pr := h.PrClass(equalsTo.S); pr > 0 {
			return pr
		}
		return 1.0 / float64(len(h.Classes))
	case sqldb.TBool, sqldb.TInt:
		idx := int(equalsTo.I)
		if idx >= 0 && idx < len(h.Classes) {
			return h.Pr(idx)
		}
	}
	return 0.5
}

// BuildHints assembles QueryHints for one collaborative query, applying the
// three rules. relRows is the estimated input cardinality and relSel the
// accumulated selectivity of the non-UDF relational predicates (used in the
// rule-1 cost comparison).
func (p *Provider) BuildHints(q *colquery.Query, relRows float64, relSel float64) *sqldb.QueryHints {
	h := &sqldb.QueryHints{
		UDFSelectivity: map[string]float64{},
		UDFCost:        map[string]float64{},
	}
	totalUDFCost := 0.0
	for _, u := range q.UDFs {
		sel := p.Selectivity(u.Name, u.EqualsLiteral)
		if prev, ok := h.UDFSelectivity[u.Name]; !ok || sel < prev {
			h.UDFSelectivity[u.Name] = sel
		}
		c := p.UDFCosts[u.Name]
		if c == 0 {
			c = 1e6 // neural UDFs are expensive by default
		}
		h.UDFCost[u.Name] = c
		totalUDFCost += c
		if u.InJoin {
			// Rule 3.
			h.SymmetricJoin = true
		}
	}
	// Rule 1: compare scan-time evaluation (full UDF cost on every input
	// row, then relational predicates see fewer rows) against delayed
	// evaluation (relational predicates first, UDF only on survivors).
	scanTimeCost := relRows*totalUDFCost + relRows*1 // full nUDF pass + cheap preds
	delayedCost := relRows*1 + relRows*relSel*totalUDFCost
	delay := delayedCost <= scanTimeCost
	h.DelayUDFs = &delay
	return h
}

// ShouldDelay exposes the rule-1 cost comparison directly (used by the
// strategies and Fig. 14's ablation): true when delaying the nUDF until
// after the relational predicates is estimated cheaper.
func ShouldDelay(relRows, relSel, udfCost float64) bool {
	scanTime := relRows * udfCost
	delayed := relRows + relRows*relSel*udfCost
	return delayed <= scanTime
}
