package engine

import (
	"fmt"
	"math"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// parallelRel generates a relation large enough that every worker count
// actually shards it, with symbolic annotations and a symbolic value column
// so the polynomial paths are exercised.
func parallelRel(t testing.TB, names *polynomial.Names, rows int) *relation.Relation {
	t.Helper()
	s := relation.NewSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "grp", Kind: relation.KindString},
		relation.Column{Name: "val", Kind: relation.KindFloat},
		relation.Column{Name: "sym", Kind: relation.KindPoly},
	)
	r := relation.NewRelation("t", s)
	for i := 0; i < rows; i++ {
		v := names.Var(fmt.Sprintf("x%d", i%17))
		r.Append(
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("g%d", i%7)),
			relation.Float(float64(i%13)+0.25),
			relation.Poly(polynomial.New(polynomial.Mono(1.5+float64(i%5), polynomial.T(v)))),
		)
		r.Rows[len(r.Rows)-1].Ann = polynomial.VarPoly(names.Var(fmt.Sprintf("a%d", i%11)))
	}
	return r
}

// sameValue compares values at the bit level (floats via Float64bits,
// polynomials exactly).
func sameValue(a, b relation.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case relation.KindPoly:
		return polynomial.Equal(a.Poly(), b.Poly())
	case relation.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case relation.KindInt:
		return a.Int() == b.Int()
	case relation.KindString:
		return a.S == b.S
	case relation.KindBool:
		return a.Bool() == b.Bool()
	default:
		return true // NULL
	}
}

func assertSameRelation(t *testing.T, want, got *relation.Relation) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("rows: %d vs %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		w, g := want.Rows[i], got.Rows[i]
		if len(w.Values) != len(g.Values) {
			t.Fatalf("row %d arity: %d vs %d", i, len(w.Values), len(g.Values))
		}
		for c := range w.Values {
			if !sameValue(w.Values[c], g.Values[c]) {
				t.Fatalf("row %d col %d: %s vs %s", i, c, w.Values[c], g.Values[c])
			}
		}
		if !polynomial.Equal(w.Ann, g.Ann) {
			t.Fatalf("row %d annotation diverged", i)
		}
	}
}

// parallelPlans enumerates one plan per operator (plus stacked plans) over
// fresh iterators, since materialized operators keep per-run state.
func parallelPlans(t *testing.T, rel, rel2 *relation.Relation) map[string]func() Iterator {
	t.Helper()
	colID := &ColRef{Idx: 0, Name: "id"}
	colGrp := &ColRef{Idx: 1, Name: "grp"}
	colVal := &ColRef{Idx: 2, Name: "val"}
	colSym := &ColRef{Idx: 3, Name: "sym"}
	return map[string]func() Iterator{
		"scan": func() Iterator { return NewScan(rel, "") },
		"filter": func() Iterator {
			return NewFilter(NewScan(rel, ""), &Cmp{Op: OpGt, L: colVal, R: &Lit{relation.Float(4)}})
		},
		"project": func() Iterator {
			return NewProject(NewScan(rel, ""), []Projection{
				{Name: "w", Expr: &Arith{Op: OpMul, L: colVal, R: colSym}},
				{Name: "g", Expr: colGrp},
			})
		},
		"hashjoin": func() Iterator {
			hj, err := NewHashJoin(NewScan(rel, "l"), NewScan(rel2, "r"), []int{1}, []int{0})
			if err != nil {
				t.Fatal(err)
			}
			return hj
		},
		"nestedloop": func() Iterator {
			pred := &Cmp{Op: OpEq, L: &ColRef{Idx: 1, Name: "l.grp"}, R: &ColRef{Idx: 4, Name: "r.key"}}
			return NewNestedLoopJoin(NewScan(rel, "l"), NewScan(rel2, "r"), pred)
		},
		"groupby": func() Iterator {
			gb, err := NewGroupBy(NewScan(rel, ""), []Expr{colGrp}, []string{"grp"}, []AggSpec{
				{Kind: AggSum, Arg: &Arith{Op: OpMul, L: colVal, R: colSym}, Name: "s"},
				{Kind: AggCount, Arg: nil, Name: "c"},
				{Kind: AggAvg, Arg: colVal, Name: "a"},
				{Kind: AggMin, Arg: colID, Name: "lo"},
				{Kind: AggMax, Arg: colID, Name: "hi"},
			})
			if err != nil {
				t.Fatal(err)
			}
			return gb
		},
		"sort": func() Iterator {
			return NewSort(NewScan(rel, ""), []SortKey{{Expr: colGrp}, {Expr: colVal, Desc: true}})
		},
		"distinct": func() Iterator {
			return NewDistinct(NewProject(NewScan(rel, ""), []Projection{{Name: "g", Expr: colGrp}, {Name: "v", Expr: colVal}}))
		},
		"union": func() Iterator {
			u, err := NewUnion(NewScan(rel, ""), NewScan(rel, "u"))
			if err != nil {
				t.Fatal(err)
			}
			return u
		},
		"limit-fallback": func() Iterator {
			return NewLimit(NewFilter(NewScan(rel, ""), &Cmp{Op: OpGt, L: colVal, R: &Lit{relation.Float(2)}}), 40)
		},
		"stacked": func() Iterator {
			f := NewFilter(NewScan(rel, ""), &Cmp{Op: OpLt, L: colID, R: &Lit{relation.Int(450)}})
			gb, err := NewGroupBy(f, []Expr{colGrp}, []string{"grp"}, []AggSpec{
				{Kind: AggSum, Arg: &Arith{Op: OpMul, L: colVal, R: colSym}, Name: "rev"},
			})
			if err != nil {
				t.Fatal(err)
			}
			return NewSort(gb, []SortKey{{Expr: &ColRef{Idx: 0, Name: "grp"}}})
		},
	}
}

// TestCollectNMatchesSequential sweeps Workers ∈ {1, 2, 8} over every
// operator and asserts bit-identical output against the sequential Collect.
func TestCollectNMatchesSequential(t *testing.T) {
	names := polynomial.NewNames()
	rel := parallelRel(t, names, 500)
	rel2 := relation.NewRelation("d", relation.NewSchema(
		relation.Column{Name: "key", Kind: relation.KindString},
		relation.Column{Name: "rank", Kind: relation.KindInt},
	))
	for i := 0; i < 7; i++ {
		rel2.Append(relation.Str(fmt.Sprintf("g%d", i)), relation.Int(int64(i*10)))
	}

	plans := parallelPlans(t, rel, rel2)
	for name, build := range plans {
		want, err := Collect("out", build())
		if err != nil {
			t.Fatalf("%s sequential: %v", name, err)
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := CollectN("out", build(), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			assertSameRelation(t, want, got)
		}
	}
}

// TestCollectNErrorDeterminism: when several rows would fail, every worker
// count reports the error of the first failing row in input order.
func TestCollectNErrorDeterminism(t *testing.T) {
	names := polynomial.NewNames()
	rel := parallelRel(t, names, 300)
	// LIKE over a non-string column fails on every row; the first failing
	// row is row 0 for all worker counts.
	build := func() Iterator {
		return NewFilter(NewScan(rel, ""), &Like{E: &ColRef{Idx: 0, Name: "id"}, Pattern: "x%"})
	}
	_, seqErr := Collect("out", build())
	if seqErr == nil {
		t.Fatal("expected error")
	}
	for _, workers := range []int{2, 8} {
		_, err := CollectN("out", build(), workers)
		if err == nil || err.Error() != seqErr.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, seqErr)
		}
	}

	// DISTINCT over a symbolic column: same error, any worker count.
	buildD := func() Iterator { return NewDistinct(NewScan(rel, "")) }
	_, seqErr = Collect("out", buildD())
	if seqErr == nil {
		t.Fatal("expected symbolic DISTINCT error")
	}
	for _, workers := range []int{2, 8} {
		_, err := CollectN("out", buildD(), workers)
		if err == nil || err.Error() != seqErr.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, seqErr)
		}
	}
}

// TestCollectNCapsCapacity: appending to a CollectN result over a bare scan
// must not scribble on the base relation's backing array.
func TestCollectNCapsCapacity(t *testing.T) {
	names := polynomial.NewNames()
	rel := parallelRel(t, names, 64)
	out, err := CollectN("out", NewScan(rel, ""), 4)
	if err != nil {
		t.Fatal(err)
	}
	out.Rows = append(out.Rows, relation.NewTuple(relation.Int(-1), relation.Str("zz"), relation.Float(0), relation.Null()))
	if rel.Rows[len(rel.Rows)-1].Values[1].S == "zz" {
		t.Fatal("append leaked into the base relation")
	}
	if len(rel.Rows) != 64 {
		t.Fatalf("base relation mutated: %d rows", len(rel.Rows))
	}
}

// TestCollectNGroupByErrorPrecedence: when a group-key error and an
// aggregate error occur on different rows, every worker count reports the
// error of the earlier row — exactly as the sequential row-at-a-time scan.
func TestCollectNGroupByErrorPrecedence(t *testing.T) {
	names := polynomial.NewNames()
	build := func(keyErrRow, aggErrRow int) func() Iterator {
		s := relation.NewSchema(
			relation.Column{Name: "k"},
			relation.Column{Name: "v"},
		)
		rel := relation.NewRelation("t", s)
		for i := 0; i < 40; i++ {
			k := relation.Str(fmt.Sprintf("g%d", i%3))
			if i == keyErrRow { // symbolic group key errors at this row
				k = relation.Poly(polynomial.VarPoly(names.Var("bad")))
			}
			v := relation.Float(float64(i))
			if i == aggErrRow { // non-numeric SUM argument errors at this row
				v = relation.Str("oops")
			}
			rel.Append(k, v)
		}
		return func() Iterator {
			gb, err := NewGroupBy(NewScan(rel, ""), []Expr{&ColRef{Idx: 0, Name: "k"}}, []string{"k"},
				[]AggSpec{{Kind: AggSum, Arg: &ColRef{Idx: 1, Name: "v"}, Name: "s"}})
			if err != nil {
				t.Fatal(err)
			}
			return gb
		}
	}
	for _, tc := range []struct{ keyErrRow, aggErrRow int }{
		{27, 4},  // aggregate error first: it must win
		{4, 27},  // key error first: it must win
		{-1, 13}, // only an aggregate error
		{13, -1}, // only a key error
	} {
		plan := build(tc.keyErrRow, tc.aggErrRow)
		_, seqErr := Collect("out", plan())
		if seqErr == nil {
			t.Fatalf("%+v: expected sequential error", tc)
		}
		for _, workers := range []int{2, 8} {
			_, err := CollectN("out", plan(), workers)
			if err == nil || err.Error() != seqErr.Error() {
				t.Fatalf("%+v workers=%d: err = %v, want %v", tc, workers, err, seqErr)
			}
		}
	}
}
