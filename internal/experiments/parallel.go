package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/core"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/valuation"
)

// E12Parallel measures the parallel engine against the sequential baseline
// on the three hot paths the Workers knob shards — single-tree compression
// (signature indexing), forest coordinate descent, and batch scenario
// valuation — and verifies that the parallel results are identical. The
// parallel side uses cfg.Workers when set (> 1), else GOMAXPROCS.
func E12Parallel(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	start := time.Now()
	workers := cfg.Workers
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	t := &Table{
		ID:      "E12",
		Title:   fmt.Sprintf("Parallel speedup at %d workers (sequential baseline)", workers),
		Columns: []string{"task", "work", "sequential", "parallel", "speedup", "identical"},
	}

	reps := 3
	if cfg.Quick {
		reps = 1
	}
	// bestOf times fn's fastest of reps runs to suppress scheduling noise.
	bestOf := func(fn func() error) (time.Duration, error) {
		best := time.Duration(1<<62 - 1)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if el := time.Since(t0); el < best {
				best = el
			}
		}
		return best, nil
	}
	speedup := func(seq, par time.Duration) string {
		if par <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fx", float64(seq)/float64(par))
	}

	// 1. Single-tree DP on a wide synthetic instance (one large polynomial,
	// so the parallelism comes from monomial-range sharding).
	{
		leaves, ctx := 500, 200
		if cfg.Quick {
			leaves, ctx = 60, 40
		}
		names := polynomial.NewNames()
		set, tree := syntheticInstance(names, leaves, ctx)
		bound := set.Size() / 2
		var seqRes, parRes *core.Result
		seqT, err := bestOf(func() (e error) { seqRes, e = core.DPSingleTreeSource(set, tree, bound, 1); return })
		if err != nil {
			return nil, err
		}
		parT, err := bestOf(func() (e error) { parRes, e = core.DPSingleTreeSource(set, tree, bound, workers); return })
		if err != nil {
			return nil, err
		}
		t.AddRow("compress (DP)", fmt.Sprintf("%d monomials", set.Size()),
			seqT, parT, speedup(seqT, parT), yesNo(sameResult(seqRes, parRes)))
	}

	// 2. Forest coordinate descent over plans × months.
	{
		names := polynomial.NewNames()
		set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
		forest := abstraction.Forest{telephony.PlansTree(names), telephony.MonthsTree(names, 12)}
		bound := set.Size() / 4
		var seqRes, parRes *core.Result
		seqT, err := bestOf(func() (e error) { seqRes, e = core.ForestDescentSource(set, forest, bound, 0, 1); return })
		if err != nil {
			return nil, err
		}
		parT, err := bestOf(func() (e error) { parRes, e = core.ForestDescentSource(set, forest, bound, 0, workers); return })
		if err != nil {
			return nil, err
		}
		t.AddRow("forest descent", fmt.Sprintf("%d monomials / 2 trees", set.Size()),
			seqT, parT, speedup(seqT, parT), yesNo(sameResult(seqRes, parRes)))
	}

	// 3. Batch scenario valuation (the E5/E6-style sweep workload).
	{
		scenarios := 400
		if cfg.Quick {
			scenarios = 50
		}
		names := polynomial.NewNames()
		set := telephony.DirectProvenance(telephony.Config{Customers: cfg.TelephonyCustomers}, names)
		prog := valuation.Compile(set)
		assignments := make([]*valuation.Assignment, scenarios)
		vars := set.UsedVars()
		for s := range assignments {
			a := valuation.New(names)
			a.SetVar(vars[s%len(vars)], 0.8+0.001*float64(s))
			assignments[s] = a
		}
		var seqOut, parOut [][]float64
		seqT, err := bestOf(func() error { seqOut = prog.EvalBatchN(assignments, seqOut, 1); return nil })
		if err != nil {
			return nil, err
		}
		parT, err := bestOf(func() error { parOut = prog.EvalBatchN(assignments, parOut, workers); return nil })
		if err != nil {
			return nil, err
		}
		t.AddRow("batch valuation", fmt.Sprintf("%d scenarios × %d monomials", scenarios, prog.Size()),
			seqT, parT, speedup(seqT, parT), yesNo(sameRows(seqOut, parOut)))
	}

	t.Note("identical = parallel output is bit-identical to the sequential baseline (the engine's determinism guarantee)")
	t.Elapsed = time.Since(start)
	return t, nil
}

// sameResult compares the fields of two compression results that determine
// the chosen abstraction.
func sameResult(a, b *core.Result) bool {
	if a == nil || b == nil || a.Size != b.Size || a.NumMeta != b.NumMeta || len(a.Cuts) != len(b.Cuts) {
		return false
	}
	for i := range a.Cuts {
		if !a.Cuts[i].Equal(b.Cuts[i]) {
			return false
		}
	}
	return true
}

// sameRows compares two result matrices for exact (bitwise) equality.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
