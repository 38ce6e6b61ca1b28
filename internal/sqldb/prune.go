package sqldb

import "strings"

// Late materialisation. The Results operators exchange keep the column
// positions of their plan node's static schema, but a column that no
// ancestor reads is never materialised: planSelect ends with prune, which
// records on every scan and join the output positions its ancestors read,
// and those operators gather only them, leaving the other positions nil.
// Operators above gather only materialised columns, and a Result with none
// still counts its rows. An aggregate over a join goes further and reads
// the join's match pairs themselves (see execAgg).

// prune records, top-down from p, the output positions of every scan and
// join that an ancestor reads. need marks the positions of p's output that
// p's parent reads; nil means all of them.
func prune(p Plan, need []bool) {
	switch t := p.(type) {
	case *LScan:
		t.used = need
	case *LJoin:
		t.used = need
		ls := t.L.OutSchema()
		var ln, rn []bool
		if need != nil {
			ln, rn = need[:len(ls)], need[len(ls):]
		}
		prune(t.L, readBy(ln, ls, t.EquiL...))
		prune(t.R, readBy(rn, t.R.OutSchema(), t.EquiR...))
	case *LFilter:
		prune(t.Child, readBy(need, t.Child.OutSchema(), t.Conds...))
	case *LProject:
		if t.Child != nil {
			prune(t.Child, itemsRead(t.Items, t.Child.OutSchema()))
		}
	case *LAgg:
		schema := t.Child.OutSchema()
		need := itemsRead(t.Items, schema, t.GroupBy...)
		if need != nil {
			markReads(need, schema, t.Having)
		}
		prune(t.Child, need)
	case *LSort:
		schema := t.Child.OutSchema()
		if need = readBy(need, schema); need != nil {
			for _, k := range t.Keys {
				markReads(need, schema, k.Expr)
			}
		}
		prune(t.Child, need)
	case *LLimit:
		prune(t.Child, need)
	case *aliasPlan:
		prune(t.Child, need)
	case *LDistinct:
		prune(t.Child, nil)
	case *unionPlan:
		// Branches are concatenated by position: every column is read.
		for _, b := range t.Branches {
			prune(b, nil)
		}
	}
}

// readBy returns need plus the positions of schema that exprs read, or nil
// (every position) when need is nil.
func readBy(need []bool, schema []OutCol, exprs ...Expr) []bool {
	if need == nil {
		return nil
	}
	out := make([]bool, len(schema))
	copy(out, need)
	markReads(out, schema, exprs...)
	return out
}

// itemsRead is the positions of schema that SELECT items and further
// expressions read; a star reads every position (nil).
func itemsRead(items []SelectItem, schema []OutCol, extra ...Expr) []bool {
	out := make([]bool, len(schema))
	for _, it := range items {
		if it.Star {
			return nil
		}
		markReads(out, schema, it.Expr)
	}
	markReads(out, schema, extra...)
	return out
}

// markReads marks in out the positions of schema that exprs read. A column
// reference marks every position it could resolve to, so an ambiguous
// reference stays ambiguous.
func markReads(out []bool, schema []OutCol, exprs ...Expr) {
	mark := func(x Expr) bool {
		if ref, ok := x.(*ColRef); ok {
			for i, c := range schema {
				if strings.EqualFold(c.Name, ref.Name) && (ref.Table == "" || strings.EqualFold(c.Table, ref.Table)) {
					out[i] = true
				}
			}
		}
		return true
	}
	for _, e := range exprs {
		Walk(e, mark)
	}
}
