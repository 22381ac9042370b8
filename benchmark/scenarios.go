package main

import (
	"fmt"
	"math"
	"math/rand"

	cobra "github.com/cobra-prov/cobra"
)

// leafScenarios draws n what-if scenarios over the given leaf variables:
// each changes 1 to maxVars distinct variables to a multiplier in
// [0.5, 1.5), the rest keep their default 1.
func leafScenarios(rng *rand.Rand, names *cobra.Names, leaves []cobra.Var, n, maxVars int) []*cobra.Assignment {
	out := make([]*cobra.Assignment, n)
	for i := range out {
		a := cobra.NewAssignment(names)
		k := 1 + rng.Intn(maxVars)
		for _, j := range rng.Perm(len(leaves))[:k] {
			a.SetVar(leaves[j], 0.5+rng.Float64())
		}
		out[i] = a
	}
	return out
}

// sentinels are the single-variable extreme scenarios: each leaf alone at
// 0.5 and at 1.5. max_rel_err is taken over them, so it depends only on the
// data and the chosen abstraction, not on which random scenarios a seed
// drew.
func sentinels(names *cobra.Names, leaves []cobra.Var) []*cobra.Assignment {
	out := make([]*cobra.Assignment, 0, 2*len(leaves))
	for _, v := range leaves {
		for _, x := range []float64{0.5, 1.5} {
			a := cobra.NewAssignment(names)
			a.SetVar(v, x)
			out = append(out, a)
		}
	}
	return out
}

// abstractionError is the largest relative error of the compressed answers
// (set under cuts, evaluated at the induced scenarios) against the full
// answers over the sentinel scenarios, evaluated with valuation.EvalSet.
func abstractionError(set *cobra.Set, cuts []cobra.Cut, leaves []cobra.Var, opts cobra.Options) float64 {
	sent := sentinels(set.Names, leaves)
	comp := cobra.ApplyWith(set, opts, cuts...)
	return maxRelErr(evalSetRows(comp, induced(sent, cuts)), evalSetRows(set, sent))
}

// forestLeaves lists every leaf variable of the forest, tree by tree.
func forestLeaves(trees cobra.Forest) []cobra.Var {
	var vs []cobra.Var
	for _, t := range trees {
		vs = append(vs, t.LeafVars()...)
	}
	return vs
}

// induced maps leaf scenarios to the meta-variable scenarios a compressed
// provenance is evaluated under.
func induced(leaf []*cobra.Assignment, cuts []cobra.Cut) []*cobra.Assignment {
	out := make([]*cobra.Assignment, len(leaf))
	for i, a := range leaf {
		out[i] = cobra.Induced(a, cuts...)
	}
	return out
}

// relErr is |got-want| relative to |want|; an exact zero compares
// absolutely.
func relErr(got, want float64) float64 {
	d := math.Abs(got - want)
	if want == 0 {
		return d
	}
	return d / math.Abs(want)
}

// maxRelErr is the largest relative error of compressed against full
// answers over matching rows.
func maxRelErr(comp, full [][]float64) float64 {
	worst := 0.0
	for i := range full {
		for j := range full[i] {
			worst = math.Max(worst, relErr(comp[i][j], full[i][j]))
		}
	}
	return worst
}

// sameRows checks got against want row by row within a relative tolerance
// (0 demands bit-identical values).
func sameRows(what string, got, want [][]float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d: %w", what, len(got), len(want), errCheck)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s: row %d has %d values, want %d: %w", what, i, len(got[i]), len(want[i]), errCheck)
		}
		for j := range want[i] {
			g, w := got[i][j], want[i][j]
			if tol == 0 && math.Float64bits(g) != math.Float64bits(w) || tol > 0 && !(relErr(g, w) <= tol) {
				return fmt.Errorf("%s: row %d value %d is %v, want %v: %w", what, i, j, g, w, errCheck)
			}
		}
	}
	return nil
}

// evalSetRows is the reference evaluation: valuation.EvalSet per scenario,
// a path separate from the compiled Program that Dataset.EvalBatch runs.
func evalSetRows(set *cobra.Set, scenarios []*cobra.Assignment) [][]float64 {
	out := make([][]float64, len(scenarios))
	for i, a := range scenarios {
		out[i] = cobra.EvalSet(set, a)
	}
	return out
}
