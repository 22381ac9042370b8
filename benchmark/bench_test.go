package main

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	cobra "github.com/cobra-prov/cobra"
)

// TestWorkloadsSmoke runs every workload end to end at small input, in
// both the untraced and the traced mode, and checks the result line.
func TestWorkloadsSmoke(t *testing.T) {
	for name, runner := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				e := &env{workload: name, seed: 7, duration: 400 * time.Millisecond, trace: trace, dir: t.TempDir(), scale: smallScale}
				rep, err := runner(e)
				if err != nil {
					t.Fatal(err)
				}
				res := rep.result(trace)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d errors=%v", res.Correct, res.Attempted, res.Failed, rep.phase.errs)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.name]
					if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
						t.Errorf("metric %s = %+v (present %v), want unit %s", m.name, v, ok, m.unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v.Value)
					}
				}
				if trace {
					if res.Metrics["trace.layer_share"].Value <= 0.5 {
						t.Errorf("layer spans cover %.2f of the traced operation time, want most of it", res.Metrics["trace.layer_share"].Value)
					}
					if len(rep.tracer.spans) == 0 {
						t.Error("traced run recorded no spans")
					}
				}
			})
		}
	}
}

// TestServeCheckRejectsAlteredBody shows the whatif-serve answer check
// accepting the reference, tolerating a last-bit rounding difference, and
// rejecting altered answers.
func TestServeCheckRejectsAlteredBody(t *testing.T) {
	names := cobra.NewNames()
	a := cobra.NewAssignment(names)
	a.SetVar(names.Var("x"), 1.5)
	q, err := newServeRequest("comp", []*cobra.Assignment{a}, [][]float64{{1786085.9941608573, 42}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.check(append([]byte(nil), q.want...)); err != nil {
		t.Fatalf("reference body rejected: %v", err)
	}
	ulp := bytes.Replace(q.want, []byte("1786085.9941608573"), []byte("1786085.994160857"), 1)
	if err := q.check(ulp); err != nil {
		t.Fatalf("last-bit difference rejected: %v", err)
	}
	for _, bad := range [][]byte{
		bytes.Replace(q.want, []byte("42"), []byte("43"), 1),
		bytes.Replace(q.want, []byte("1786085.99"), []byte("1786085.98"), 1),
		bytes.Replace(q.want, []byte(",42"), nil, 1),
		[]byte(`{"error":"boom"}` + "\n"),
	} {
		if err := q.check(bad); !errors.Is(err, errCheck) {
			t.Errorf("altered body %q accepted (err %v)", bad, err)
		}
	}
}

// TestTPCHCheckRejectsAlteredRows shows the tpch-capture check rejecting a
// different compression result, a scenario row that differs from the
// EvalSet reference, an all-ones row that does not commute with the
// concrete answer, and a compressed row that differs from its reference.
func TestTPCHCheckRejectsAlteredRows(t *testing.T) {
	tree := testTree(t)
	newQuery := func() *tpchQuery {
		tq := &tpchQuery{
			ref:      [][]float64{{10, 20}, {5, 7}},
			concrete: []float64{5, 7},
			res:      &cobra.Result{Cuts: []cobra.Cut{tree.LeafCut()}, Size: 5, NumMeta: 2},
			compRef:  [][]float64{{11, 19}},
		}
		tq.q.Name = "Q"
		return tq
	}
	res := func() *cobra.Result { return &cobra.Result{Cuts: []cobra.Cut{tree.LeafCut()}, Size: 5, NumMeta: 2} }
	full := func() [][]float64 { return [][]float64{{10, 20}, {5, 7}} }
	comp := func() [][]float64 { return [][]float64{{11, 19}} }
	if err := newQuery().check(res(), full(), comp()); err != nil {
		t.Fatalf("reference outcome rejected: %v", err)
	}
	other := res()
	other.Cuts = []cobra.Cut{tree.RootCut()}
	if err := newQuery().check(other, full(), comp()); !errors.Is(err, errCheck) {
		t.Errorf("different cut accepted (err %v)", err)
	}
	scen := full()
	scen[0][1] *= 1 + 1e-6
	if err := newQuery().check(res(), scen, comp()); !errors.Is(err, errCheck) {
		t.Errorf("altered scenario row accepted (err %v)", err)
	}
	tq := newQuery()
	tq.concrete = []float64{5, 7.001}
	if err := tq.check(res(), full(), comp()); !errors.Is(err, errCheck) {
		t.Errorf("non-commuting all-ones row accepted (err %v)", err)
	}
	c := comp()
	c[0][0] *= 1 + 1e-6
	if err := newQuery().check(res(), full(), c); !errors.Is(err, errCheck) {
		t.Errorf("altered compressed row accepted (err %v)", err)
	}
}

// testTree is a two-leaf tree over x and y.
func testTree(t *testing.T) *cobra.Tree {
	t.Helper()
	tree, err := cobra.TreeFromPaths("T", cobra.NewNames(), []string{"x"}, []string{"y"})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestOutOfCoreCheckRejectsAlteredOutcome shows the telephony-outofcore
// check rejecting a reloaded answer one bit off, a compressed answer that
// differs from its reference, a different compression result, and
// residency above the budget.
func TestOutOfCoreCheckRejectsAlteredOutcome(t *testing.T) {
	names := cobra.NewNames()
	set := cobra.NewSet(names)
	for i, p := range []string{"2*x*y + 3*y", "x + 4*y", "5*x*y"} {
		set.Add(string(rune('a'+i)), cobra.MustParsePolynomial(p, names))
	}
	ss, err := cobra.ShardSet(set, cobra.Options{MaxResidentMonomials: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	tree := testTree(t)
	ref := &oocRef{
		res:    &cobra.Result{Cuts: []cobra.Cut{tree.LeafCut()}, Size: 5, NumMeta: 2},
		full:   [][]float64{{5, 5, 5}},
		comp:   [][]float64{{5, 5}},
		budget: ss.PeakResidentMonomials(),
	}
	fresh := func() *oocOp {
		return &oocOp{
			ss:     ss,
			res:    &cobra.Result{Cuts: []cobra.Cut{tree.LeafCut()}, Size: 5, NumMeta: 2},
			full:   [][]float64{{5, 5, 5}},
			reload: [][]float64{{5, 5, 5}},
			comp:   [][]float64{{5, 5}},
		}
	}
	if err := fresh().check(ref); err != nil {
		t.Fatalf("reference outcome rejected: %v", err)
	}
	o := fresh()
	o.reload[0][2] = math.Nextafter(5, 6)
	if err := o.check(ref); !errors.Is(err, errCheck) {
		t.Errorf("reload one bit off accepted (err %v)", err)
	}
	o = fresh()
	o.comp[0][1] = 5.001
	if err := o.check(ref); !errors.Is(err, errCheck) {
		t.Errorf("altered compressed answer accepted (err %v)", err)
	}
	o = fresh()
	o.res.Cuts = []cobra.Cut{tree.RootCut()}
	if err := o.check(ref); !errors.Is(err, errCheck) {
		t.Errorf("different cut accepted (err %v)", err)
	}
	tight := *ref
	tight.budget--
	if err := fresh().check(&tight); !errors.Is(err, errCheck) {
		t.Errorf("residency above the budget accepted (err %v)", err)
	}
}

// TestPhaseWindows checks the measurement windows: whole rounds in
// completion order, per-window percentiles and throughput, the steal share
// read off the bracketing samples, and which windows the steal limit keeps.
func TestPhaseWindows(t *testing.T) {
	start := time.Unix(1000, 0)
	at := func(s int) time.Time { return start.Add(time.Duration(s) * time.Second) }
	p := &phase{start: start}
	// Eight operations, one per second, recorded out of completion order.
	for _, i := range []int{1, 0, 2, 3, 5, 4, 6, 7} {
		p.lat = append(p.lat, float64(10*(i+1)))
		p.ends = append(p.ends, at(i+1))
	}
	steal := &stealSampler{samples: []stealSample{{start, 0, 0}, {at(4), 0, 400}, {at(8), 200, 800}}}
	ws := p.windows(2, steal)
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4 (one per round of 2)", len(ws))
	}
	want := []window{{15, 19, 1, 0}, {35, 39, 1, 0}, {55, 59, 1, 0.5}, {75, 79, 1, 0.5}}
	for k, w := range ws {
		if math.Abs(w.P50-want[k].P50) > 1e-9 || math.Abs(w.P90-want[k].P90) > 1e-9 ||
			math.Abs(w.PerSec-want[k].PerSec) > 1e-9 || w.Steal != want[k].Steal {
			t.Errorf("window %d = %+v, want %+v", k, w, want[k])
		}
	}
	kept := keepWindows(ws)
	if len(kept) != 2 || kept[1].P50 != 35 {
		t.Errorf("kept %+v, want the first two windows", kept)
	}
	// Three of four windows above the limit: the two quietest are kept.
	ws[1].Steal = 2 * maxStealShare
	ws[3].Steal = 1.5 * maxStealShare
	kept = keepWindows(ws)
	if len(kept) != 2 || kept[0].P50 != 15 || kept[1].P50 != 75 {
		t.Errorf("kept %+v, want the two windows with the least steal", kept)
	}
}

// TestRunRejectsBadArguments checks the command line is validated before
// any work starts.
func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tpch-capture", "--seconds", "0"},
		{"--workload", "tpch-capture", "--trace", "2"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected runs printed a result: %q", out.String())
	}
}
