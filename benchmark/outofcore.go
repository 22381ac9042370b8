package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
)

// telephony-outofcore: the out-of-core pipeline. Set-up writes the
// telephony provenance once as a provenance stream file, standing in for
// an external engine's output. Each operation reads it back under a
// residency budget of 1/8 of its monomials (so it spills), compresses it
// with coupled forest descent over the shards, applies the cut, evaluates
// 64 scenarios on both datasets, evicts the full dataset to disk and
// evaluates it again after the transparent reload.
const oocScenarios = 64

type oocOp struct {
	ss                 *cobra.ShardedSet
	res                *cobra.Result
	full, comp, reload [][]float64
}

func runOutOfCore(e *env) (*report, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(e.seed))
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: e.scale.oocCustomers}, names)
	forest := cobra.Forest{telephony.PlansTree(names), telephony.MonthsTree(names, 12)}
	budget := max(set.Size()/8, 2)
	bound := set.Size() / 3
	spillDir := filepath.Join(e.dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	opts := cobra.Options{Workers: cobra.AutoWorkers(), MaxResidentMonomials: budget, SpillDir: spillDir}
	r := &report{tracer: newTracer(), layers: map[string]float64{}, extra: map[string]metricValue{}}

	// Every operation starts from the stream file, so the workload's
	// set-up, and its setup_s, is the polyio WriteSetStream of that file.
	streamPath := filepath.Join(e.dir, "provenance.stream")
	setup := func() (struct{}, error) {
		return struct{}{}, writeStream(streamPath, set)
	}
	_, durs, err := timeSetups(e.scale, setup, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	r.setup = durs

	// References: the in-memory compression, and EvalSet answers on the
	// full set and on the set under the reference cut.
	want, err := cobra.CompressWith(set, forest, bound, cobra.Options{Workers: opts.Workers})
	if err != nil {
		return nil, err
	}
	scenarios := leafScenarios(rng, names, forestLeaves(forest), oocScenarios, 3)
	ref := oocRef{
		res:    want,
		full:   evalSetRows(set, scenarios),
		comp:   evalSetRows(cobra.ApplyWith(set, opts, want.Cuts...), induced(scenarios, want.Cuts)),
		budget: budget,
	}
	r.maxRelErr = abstractionError(set, want.Cuts, forestLeaves(forest), opts)

	tr := r.tracer
	// probe, when set, is called between the steps of an operation to
	// sample the spill directory.
	var probe func(step string)
	fn := func(_ int, id int64) (func() error, error) {
		var o oocOp
		opSpan := tr.begin(id, 0, "op")
		err := o.run(ctx, tr, id, opSpan.id(), streamPath, names, forest, bound, opts, scenarios, probe)
		opSpan.end()
		if err != nil {
			return nil, err
		}
		return func() error { return o.check(&ref) }, nil
	}

	// The warm-up operation also measures disk use: the spill directory is
	// walked after every step, outside any timed operation.
	var peakDisk int64
	disk := map[string]int64{}
	probe = func(step string) {
		n, err := dirBytes(spillDir, "")
		if err != nil {
			return
		}
		peakDisk = max(peakDisk, n)
		disk[step] = n
		if step == "evict" {
			disk["evict_file"], _ = dirBytes(spillDir, "set.v3")
		}
	}
	if p := closedLoop(1, 0, 1, 1<<50, fn); p.failed > 0 {
		return nil, fmt.Errorf("warm-up operation failed: %s", strings.Join(p.errs, "; "))
	}
	probe = nil
	r.layers["polynomial.spill_bytes"] = float64(disk["read"])
	r.layers["polyio.evict_bytes"] = float64(disk["evict_file"])
	r.extra["disk_bytes_per_monomial"] = metricValue{float64(peakDisk) / float64(set.Size()), "bytes"}

	if err := e.measure(r, 1, 1, fn); err != nil {
		return nil, err
	}
	return r, nil
}

// run is one operation; with tracing enabled each step is a span under
// the operation's span.
func (o *oocOp) run(ctx context.Context, tr *tracer, id, parent int64, path string, names *cobra.Names,
	forest cobra.Forest, bound int, opts cobra.Options, scenarios []*cobra.Assignment, probe func(string)) error {
	step := func(name string) {
		if probe != nil {
			probe(name)
		}
	}
	if err := tr.do(id, parent, "polyio.read", func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		o.ss, err = cobra.ReadSetStream(f, names, opts)
		return err
	}); err != nil {
		return err
	}
	step("read")
	tr.add("polynomial.shards", float64(o.ss.NumShards()))
	tr.add("polynomial.spilled_shards", float64(o.ss.SpilledShards()))
	ds, err := cobra.OpenDataset("telephony", o.ss, forest, opts)
	if err != nil {
		o.ss.Close()
		return err
	}
	defer ds.Close()
	if err := tr.do(id, parent, "core.compress", func() (err error) {
		o.res, err = ds.Compress(ctx, bound)
		return err
	}); err != nil {
		return err
	}
	tr.add("core.compressed_size", float64(o.res.Size))
	tr.add("core.num_meta", float64(o.res.NumMeta))
	var comp *cobra.Dataset
	if err := tr.do(id, parent, "abstraction.apply", func() (err error) {
		comp, err = ds.Apply(ctx, o.res.Cuts...)
		return err
	}); err != nil {
		return err
	}
	defer comp.Close()
	step("apply")
	tr.add("abstraction.monomials_out", float64(comp.Size()))
	ind := induced(scenarios, o.res.Cuts)
	if err := tr.do(id, parent, "valuation.sharded_eval", func() (err error) {
		o.comp, err = comp.EvalBatch(ctx, ind)
		return err
	}); err != nil {
		return err
	}
	t0 := time.Now()
	if err := tr.do(id, parent, "valuation.sharded_eval", func() (err error) {
		o.full, err = ds.EvalBatch(ctx, scenarios)
		return err
	}); err != nil {
		return err
	}
	resident := time.Since(t0)
	if err := tr.do(id, parent, "polyio.evict", func() error {
		_, err := ds.Evict()
		return err
	}); err != nil {
		return err
	}
	step("evict")
	t0 = time.Now()
	if err := tr.do(id, parent, "valuation.reload_eval", func() (err error) {
		o.reload, err = ds.EvalBatch(ctx, scenarios)
		return err
	}); err != nil {
		return err
	}
	tr.add("polyio.reload_ms", float64(time.Since(t0)-resident)/float64(time.Millisecond))
	tr.add("polynomial.peak_resident_monomials", float64(o.ss.PeakResidentMonomials()))
	tr.add("valuation.monomial_evals", float64(len(ind)*comp.Size()+2*len(scenarios)*ds.Size()))
	return nil
}

// oocRef holds what every telephony-outofcore operation must produce.
type oocRef struct {
	res        *cobra.Result // the in-memory compression
	full, comp [][]float64   // valuation.EvalSet rows on the full and the compressed set
	budget     int           // the residency budget in monomials
}

// check compares an operation's outcome with the references: residency
// within the budget, the in-memory compression's result, full and
// compressed answers equal to valuation.EvalSet's within 1e-12, and answers
// after the reload bit-identical to those before the eviction.
func (o *oocOp) check(ref *oocRef) error {
	if peak := o.ss.PeakResidentMonomials(); peak > ref.budget {
		return fmt.Errorf("peak resident monomials %d exceed the budget %d: %w", peak, ref.budget, errCheck)
	}
	if !sameResult(o.res, ref.res) {
		return fmt.Errorf("out-of-core compression differs from the in-memory reference: %w", errCheck)
	}
	if err := sameRows("full answers", o.full, ref.full, 1e-12); err != nil {
		return err
	}
	if err := sameRows("compressed answers", o.comp, ref.comp, 1e-12); err != nil {
		return err
	}
	return sameRows("answers after reload", o.reload, o.full, 0)
}

// writeStream writes the provenance stream file the operations read.
func writeStream(path string, set *cobra.Set) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = cobra.WriteSetStream(w, set)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// dirBytes sums the sizes of the regular files under dir, or of those
// named only, when only is not empty.
func dirBytes(dir, only string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() || only != "" && d.Name() != only {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// sameResult reports whether two compression results chose the same cuts
// with the same effect.
func sameResult(a, b *cobra.Result) bool {
	if a.Size != b.Size || a.NumMeta != b.NumMeta || len(a.Cuts) != len(b.Cuts) {
		return false
	}
	for i := range a.Cuts {
		if !a.Cuts[i].Equal(b.Cuts[i]) {
			return false
		}
	}
	return true
}
