package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/tpch"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/sql"
)

// tpch-capture: provenance capture through the SQL engine. Each operation
// captures one of the seven TPC-H queries (round-robin) from the
// ship-month-instrumented database with the parallel capture path,
// compresses it under the date tree at a bound read off the query's own
// frontier, applies the cut and evaluates 16 month scenarios on the full
// and the compressed provenance.
const tpchScenarios = 16

type tpchQuery struct {
	q         tpch.Query
	scenarios []*cobra.Assignment // leaf scenarios, then the all-ones assignment
	concrete  []float64           // the concrete query's answer per key
	ref       [][]float64         // reference rows per scenario (valuation.EvalSet)
	res       *cobra.Result       // the reference compression of the captured set
	compRef   [][]float64         // reference compressed rows at the induced scenarios
	absErr    float64             // abstractionError of the reference cut
}

type tpchState struct {
	names *cobra.Names
	cat   cobra.Catalog
	tree  *cobra.Tree
}

func runTPCHCapture(e *env) (*report, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(e.seed))
	raw := tpch.Generate(tpch.Config{SF: e.scale.tpchSF, Seed: e.seed})
	workers := cobra.AutoWorkers()
	opts := cobra.Options{Workers: workers}
	r := &report{tracer: newTracer(), layers: map[string]float64{}}

	setup := func() (*tpchState, error) {
		names := cobra.NewNames()
		st := &tpchState{names: names, cat: cobra.Catalog{}}
		for k, v := range raw {
			st.cat[k] = v
		}
		li, err := cobra.ParameterizeColumnWith(raw["lineitem"], "l_extendedprice",
			[]cobra.VarSpec{{Prefix: "mo_", Columns: []string{"l_shipmonth"}}}, names, opts)
		if err != nil {
			return nil, err
		}
		st.cat["lineitem"] = li
		st.tree = tpch.DateTree(names)
		return st, nil
	}
	st, durs, err := timeSetups(e.scale, setup, func(*tpchState) {})
	if err != nil {
		return nil, err
	}
	r.setup = durs
	// Set-up is the instrumentation, so its median is the layer's time.
	r.layers["provenance.instrument_ms"] = medianDuration(durs) * 1000

	// Reference answers: each query once on the concrete database (the
	// commutation oracle) and once captured, compressed at its frontier
	// bound and evaluated, full and compressed, with EvalSet.
	leaves := st.tree.LeafVars()
	forest := cobra.Forest{st.tree}
	queries := make([]tpchQuery, len(tpch.Queries))
	for i, q := range tpch.Queries {
		tq := tpchQuery{q: q}
		tq.scenarios = append(leafScenarios(rng, st.names, leaves, tpchScenarios, 4), cobra.NewAssignment(st.names))
		concrete, err := cobra.CaptureWith(q.Prov, raw, cobra.NewNames(), q.ValueCol, opts)
		if err != nil {
			return nil, fmt.Errorf("%s on the concrete database: %w", q.Name, err)
		}
		byKey := map[string]float64{}
		for j, k := range concrete.Keys {
			c, ok := concrete.Polys[j].IsConstant()
			if !ok {
				return nil, fmt.Errorf("%s: concrete answer for %q is symbolic", q.Name, k)
			}
			byKey[k] = c
		}
		set, err := cobra.CaptureWith(q.Prov, st.cat, st.names, q.ValueCol, opts)
		if err != nil {
			return nil, err
		}
		for _, k := range set.Keys {
			c, ok := byKey[k]
			if !ok {
				return nil, fmt.Errorf("%s: group %q missing from the concrete answer", q.Name, k)
			}
			tq.concrete = append(tq.concrete, c)
		}
		if len(byKey) != len(set.Keys) {
			return nil, fmt.Errorf("%s: %d concrete groups, %d captured", q.Name, len(byKey), len(set.Keys))
		}
		tq.ref = evalSetRows(set, tq.scenarios)
		if tq.res, err = referenceCompress(ctx, q.Name, set, forest, opts); err != nil {
			return nil, err
		}
		comp := cobra.ApplyWith(set, opts, tq.res.Cuts...)
		tq.compRef = evalSetRows(comp, induced(tq.scenarios[:tpchScenarios], tq.res.Cuts))
		tq.absErr = abstractionError(set, tq.res.Cuts, leaves, opts)
		queries[i] = tq
	}

	for _, tq := range queries {
		r.maxRelErr = max(r.maxRelErr, tq.absErr)
	}

	tr := r.tracer
	fn := func(_ int, id int64) (func() error, error) {
		tq := &queries[int(id%int64(len(queries)))]
		q := tq.q
		opSpan := tr.begin(id, 0, "op")
		defer opSpan.end()
		parent := opSpan.id()

		// Capture is CaptureDataset's in-memory path taken apart at the
		// layer boundaries: sql.Open's Parse+Plan, sql.RunN's CollectN and
		// provenance.CaptureN's FromRelationN, then OpenDataset.
		var plan engine.Iterator
		if err := tr.do(id, parent, "sql.plan", func() error {
			stmt, err := sql.Parse(q.Prov)
			if err != nil {
				return err
			}
			plan, err = sql.Plan(stmt, st.cat)
			return err
		}); err != nil {
			return nil, err
		}
		var rel *cobra.Relation
		if err := tr.do(id, parent, "engine.exec", func() (err error) {
			rel, err = engine.CollectN("result", plan, workers)
			return err
		}); err != nil {
			return nil, err
		}
		tr.add("engine.rows_out", float64(len(rel.Rows)))
		var set *cobra.Set
		if err := tr.do(id, parent, "provenance.render", func() (err error) {
			set, err = provenance.FromRelationN(rel, st.names, q.ValueCol, workers)
			return err
		}); err != nil {
			return nil, err
		}
		ds, err := cobra.OpenDataset(q.Name, set, forest, opts)
		if err != nil {
			return nil, err
		}
		defer ds.Close()
		tr.add("provenance.monomials", float64(ds.Size()))

		var frontier []cobra.FrontierPoint
		if err := tr.do(id, parent, "core.frontier", func() (err error) {
			frontier, err = ds.Frontier(ctx)
			return err
		}); err != nil {
			return nil, err
		}
		bound := frontierBound(frontier, ds.Size())
		var res *cobra.Result
		if err := tr.do(id, parent, "core.compress", func() (err error) {
			res, err = ds.Compress(ctx, bound)
			return err
		}); err != nil {
			return nil, err
		}
		tr.add("core.compressed_size", float64(res.Size))
		tr.add("core.num_meta", float64(res.NumMeta))
		ind := induced(tq.scenarios[:tpchScenarios], res.Cuts)

		var comp *cobra.Dataset
		if err := tr.do(id, parent, "abstraction.apply", func() (err error) {
			comp, err = ds.Apply(ctx, res.Cuts...)
			return err
		}); err != nil {
			return nil, err
		}
		defer comp.Close()
		tr.add("abstraction.monomials_out", float64(comp.Size()))
		// An empty EvalBatch compiles and memoizes each dataset's program.
		if err := tr.do(id, parent, "valuation.compile", func() error {
			if _, err := ds.EvalBatch(ctx, nil); err != nil {
				return err
			}
			_, err := comp.EvalBatch(ctx, nil)
			return err
		}); err != nil {
			return nil, err
		}
		var fullRows, compRows [][]float64
		if err := tr.do(id, parent, "valuation.eval", func() (err error) {
			if fullRows, err = ds.EvalBatch(ctx, tq.scenarios); err != nil {
				return err
			}
			compRows, err = comp.EvalBatch(ctx, ind)
			return err
		}); err != nil {
			return nil, err
		}
		tr.add("valuation.scenarios", float64(len(tq.scenarios)+len(ind)))
		tr.add("valuation.monomial_evals", float64(len(tq.scenarios)*ds.Size()+len(ind)*comp.Size()))
		return func() error { return tq.check(res, fullRows, compRows) }, nil
	}

	// One warm-up round lets caches fill and the heap grow.
	if p := closedLoop(1, 0, len(queries), 1<<50, fn); p.failed > 0 {
		return nil, fmt.Errorf("warm-up round failed: %s", strings.Join(p.errs, "; "))
	}
	if err := e.measure(r, 1, len(queries), fn); err != nil {
		return nil, err
	}
	return r, nil
}

// frontierBound picks the compression bound from a query's frontier: a
// third of the provenance size, raised to the smallest size the tree can
// reach when a third is out of reach.
func frontierBound(frontier []cobra.FrontierPoint, size int) int {
	bound := size / 3
	minSize := size
	for _, p := range frontier {
		minSize = min(minSize, p.MinSize)
	}
	return max(bound, minSize)
}

// referenceCompress compresses a captured set the way an operation does:
// at the bound frontierBound reads off the set's frontier.
func referenceCompress(ctx context.Context, name string, set *cobra.Set, forest cobra.Forest, opts cobra.Options) (*cobra.Result, error) {
	ds, err := cobra.OpenDataset(name, set, forest, opts)
	if err != nil {
		return nil, err
	}
	defer ds.Close()
	frontier, err := ds.Frontier(ctx)
	if err != nil {
		return nil, err
	}
	bound := frontierBound(frontier, ds.Size())
	res, err := ds.Compress(ctx, bound)
	if err != nil {
		return nil, err
	}
	if res.Size > bound {
		return nil, fmt.Errorf("%s: compressed size %d exceeds bound %d", name, res.Size, bound)
	}
	return res, nil
}

// check compares an operation's outcome with the references: the same
// compression result, every full scenario row equal to valuation.EvalSet's
// within 1e-9, the all-ones row commuting with the concrete query's answer
// within 1e-9, and every compressed row equal to EvalSet's over the applied
// reference cut within 1e-9.
func (tq *tpchQuery) check(res *cobra.Result, full, comp [][]float64) error {
	if !sameResult(res, tq.res) {
		return fmt.Errorf("%s: compression differs from the reference: %w", tq.q.Name, errCheck)
	}
	if err := sameRows(tq.q.Name, full, tq.ref, 1e-9); err != nil {
		return err
	}
	ones := full[len(full)-1]
	if err := sameRows(tq.q.Name+" commutation", [][]float64{ones}, [][]float64{tq.concrete}, 1e-9); err != nil {
		return err
	}
	return sameRows(tq.q.Name+" compressed", comp, tq.compRef, 1e-9)
}
