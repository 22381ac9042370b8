package valuation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

func TestEvalBatchMatchesSingle(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	for g := 0; g < 4; g++ {
		var b polynomial.Builder
		for m := 0; m < 20; m++ {
			b.Add(float64(r.Intn(9)+1),
				polynomial.T(names.Var(fmt.Sprintf("x%d", r.Intn(10)))),
				polynomial.T(names.Var(fmt.Sprintf("y%d", r.Intn(5)))))
		}
		set.Add(fmt.Sprintf("g%d", g), b.Polynomial())
	}
	prog := Compile(set)

	var batch []*Assignment
	for s := 0; s < 12; s++ {
		a := New(names)
		for v := 0; v < names.Len(); v++ {
			if r.Intn(2) == 0 {
				a.SetVar(polynomial.Var(v), r.Float64()*2)
			}
		}
		batch = append(batch, a)
	}

	got := prog.EvalBatchN(batch, nil, 1)
	if len(got) != len(batch) {
		t.Fatalf("rows = %d", len(got))
	}
	for i, a := range batch {
		want := EvalSet(set, a)
		for j := range want {
			if math.Abs(got[i][j]-want[j]) > 1e-9 {
				t.Fatalf("scenario %d group %d: %v != %v", i, j, got[i][j], want[j])
			}
		}
	}

	// Buffer reuse.
	again := prog.EvalBatchN(batch, got, 1)
	for i := range again {
		for j := range again[i] {
			if again[i][j] != got[i][j] {
				t.Fatal("reused buffer changed results")
			}
		}
	}
}

func TestEvalBatchNWorkersIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(222))
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	for g := 0; g < 6; g++ {
		var b polynomial.Builder
		for m := 0; m < 40; m++ {
			b.Add(r.Float64()*10-5,
				polynomial.TExp(names.Var(fmt.Sprintf("x%d", r.Intn(20))), int32(1+r.Intn(3))),
				polynomial.T(names.Var(fmt.Sprintf("y%d", r.Intn(8)))))
		}
		set.Add(fmt.Sprintf("g%d", g), b.Polynomial())
	}
	prog := Compile(set)

	for _, scenarios := range []int{1, 7, 100} {
		batch := make([]*Assignment, scenarios)
		for s := range batch {
			a := New(names)
			for v := 0; v < names.Len(); v++ {
				if r.Intn(3) == 0 {
					a.SetVar(polynomial.Var(v), r.Float64()*2)
				}
			}
			batch[s] = a
		}
		want := prog.EvalBatchN(batch, nil, 1)
		for _, workers := range []int{2, 8} {
			got := prog.EvalBatchN(batch, nil, workers)
			if len(got) != len(want) {
				t.Fatalf("scenarios=%d workers=%d: rows = %d, want %d", scenarios, workers, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					// Bit-identical, not approximately equal: the parallel
					// path must evaluate each row exactly like the
					// sequential one.
					if got[i][j] != want[i][j] {
						t.Fatalf("scenarios=%d workers=%d: row %d group %d: %v != %v",
							scenarios, workers, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

func TestEvalBatchEmpty(t *testing.T) {
	names := polynomial.NewNames()
	set := polynomial.NewSet(names)
	set.Add("g", polynomial.MustParse("x", names))
	prog := Compile(set)
	if out := prog.EvalBatchN(nil, nil, 1); len(out) != 0 {
		t.Fatalf("expected empty, got %v", out)
	}
}
