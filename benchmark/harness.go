package main

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// scale sizes a workload's inputs. paperScale is what the benchmark
// measures; tests run the same code at smallScale.
type scale struct {
	serveCustomers int           // whatif-serve telephony customers
	tpchSF         float64       // tpch-capture scale factor
	oocCustomers   int           // telephony-outofcore customers
	setups         int           // least timed set-ups per run; setup_s is their median
	setupTotal     time.Duration // set-ups repeat until they took this long in total
	warmup         time.Duration
}

var paperScale = scale{
	serveCustomers: 1_000_000,
	tpchSF:         0.05,
	oocCustomers:   300_000,
	setups:         5,
	setupTotal:     time.Second,
	warmup:         time.Second,
}

var smallScale = scale{
	serveCustomers: 20_000,
	tpchSF:         0.002,
	oocCustomers:   10_000,
	setups:         2,
	warmup:         50 * time.Millisecond,
}

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	dir      string // benchmark-owned scratch directory, removed at exit
	scale    scale
}

// report is what a workload run measured.
type report struct {
	setup     []time.Duration
	phase     *phase // the untraced measured phase
	traced    *phase // the traced phase (trace runs only)
	tracer    *tracer
	maxRelErr float64
	peakRSSMB float64
	// stealShare is the share of CPU time the host withheld from this
	// machine during the measured region.
	stealShare float64
	// windows are the measurement windows of the untraced phase; kept are
	// those the end-to-end metrics are taken over.
	windows, kept []window
	layers        map[string]float64     // per-layer metrics beyond the span-derived ones
	extra         map[string]metricValue // workload-specific metrics printed on the run line
}

// phase collects one measured region: per-operation latencies, failures,
// and the wall time the harness spent outside operations.
type phase struct {
	mu        sync.Mutex
	start     time.Time
	lat       []float64   // ms, completed operations
	ends      []time.Time // completion time of each completed operation
	attempted int
	failed    int
	errs      []string // first few failure messages
	wall      time.Duration
	harness   time.Duration // summed over clients
	clients   int
}

func (p *phase) record(lat time.Duration, end time.Time, harness time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.harness += harness
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
		return
	}
	p.lat = append(p.lat, float64(lat)/float64(time.Millisecond))
	p.ends = append(p.ends, end)
}

func (p *phase) harnessShare() float64 {
	if p.wall <= 0 || p.clients == 0 {
		return 0
	}
	return p.harness.Seconds() / (p.wall.Seconds() * float64(p.clients))
}

// op is one timed operation. It returns when the system's answer is
// complete; the returned check compares the answer against the reference
// after the operation's timer has stopped.
type op func(client int, id int64) (check func() error, err error)

// closedLoop runs clients concurrent closed loops for d: each client starts
// its next operation only when the previous one has completed and been
// checked. Each client runs whole rounds of round operations, at least
// one, so a run of a round-robin workload holds every kind of operation
// equally often. firstID numbers the operations.
func closedLoop(clients int, d time.Duration, round int, firstID int64, fn op) *phase {
	start := time.Now()
	p := &phase{clients: clients, start: start}
	var id atomic.Int64
	id.Store(firstID)
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; n < round || time.Now().Before(deadline) || n%round != 0; n++ {
				t0 := time.Now()
				check, err := fn(c, id.Add(1))
				t1 := time.Now()
				if err == nil && check != nil {
					err = check()
				}
				p.record(t1.Sub(t0), t1, time.Since(t1), err)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// maxSetups caps the set-up repetitions of a run.
const maxSetups = 200

// timeSetups runs setup at least sc.setups times and until the runs took
// sc.setupTotal together, timing each; it returns the last set-up's state
// with all durations. Earlier states are released with done.
func timeSetups[T any](sc scale, setup func() (T, error), done func(T)) (T, []time.Duration, error) {
	var (
		st    T
		durs  []time.Duration
		total time.Duration
	)
	for i := 0; i < maxSetups && (i < sc.setups || total < sc.setupTotal); i++ {
		settle()
		t0 := time.Now()
		s, err := setup()
		durs = append(durs, time.Since(t0))
		total += durs[i]
		if err != nil {
			return st, nil, err
		}
		if i > 0 {
			done(st)
		}
		st = s
	}
	return st, durs, nil
}

// settle collects garbage and returns freed memory to the OS, so set-up
// and measured phases start from the live heap only.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS settles the heap and resets the kernel's resident-set
// high-water mark, so peakRSSMB reports the peak of the region that
// follows. It reports false where /proc does not allow the reset.
func resetPeakRSS() bool {
	settle()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// percentile returns the q-quantile of xs by linear interpolation between
// order statistics.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func medianDuration(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return percentile(xs, 0.5)
}

// result assembles the final line: the end-to-end metrics of the untraced
// phase, or the per-layer metrics of the traced run.
func (r *report) result(trace bool) result {
	p := r.phase
	res := result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metricValue{},
	}
	if r.traced != nil {
		res.Correct = res.Correct && r.traced.failed == 0
		res.Attempted += r.traced.attempted
		res.Failed += r.traced.failed
	}
	if !trace {
		var p50, p90, perSec []float64
		for _, w := range r.kept {
			p50 = append(p50, w.P50)
			p90 = append(p90, w.P90)
			perSec = append(perSec, w.PerSec)
		}
		vals := map[string]float64{
			"setup_s":      medianDuration(r.setup),
			"op_p50_ms":    percentile(p50, 0.5),
			"op_p90_ms":    percentile(p90, 0.5),
			"ops_per_s":    percentile(perSec, 0.5),
			"success_rate": 1 - float64(p.failed)/float64(max(p.attempted, 1)),
			"max_rel_err":  r.maxRelErr,
			"peak_rss_mb":  r.peakRSSMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{finite(vals[m.name]), m.unit}
		}
		return res
	}
	vals := r.tracer.layerMetrics(len(r.traced.lat) + r.traced.failed)
	for k, v := range r.layers {
		vals[k] = v
	}
	if s := vals["valuation.scenarios"]; s > 0 {
		vals["valuation.eval_us_per_scenario"] = vals["valuation.eval_ms"] * 1000 / s
	}
	if vals["serve.handler_ms"] > 0 {
		vals["serve.self_ms"] = vals["serve.handler_ms"] - vals["valuation.eval_ms"]
	}
	vals["trace.overhead_ms"] = percentile(r.traced.lat, 0.5) - percentile(p.lat, 0.5)
	vals["harness.share"] = r.traced.harnessShare()
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{finite(vals[m.name]), m.unit}
	}
	return res
}

// finite maps the NaN of an empty sample to 0, which JSON can carry; the
// run is then already marked incorrect.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// Noise control of the measured region. The untraced phase is split into
// up to measureWindows windows of equal operation count, each window's
// steal share (the CPU time the host withheld from this machine) is read
// off /proc/stat samples, and windows above maxStealShare are dropped. The
// latency and throughput metrics are medians over the windows kept, so a
// burst of host noise in a minority of windows does not move them. At
// least half the windows are always kept (see keepWindows).
const (
	measureWindows   = 10
	maxStealShare    = 0.10
	stealSampleEvery = 100 * time.Millisecond
)

// window is one measurement window of a phase.
type window struct {
	P50    float64 `json:"p50_ms"`
	P90    float64 `json:"p90_ms"`
	PerSec float64 `json:"ops_per_s"` // completed operations per second
	Steal  float64 `json:"steal"`     // host steal share over the window
}

// windows splits the phase's completed operations, in completion order,
// into up to measureWindows windows of whole rounds of round operations
// (the last window takes the remainder). A window spans from the previous
// window's last completion, or the phase start, to its own last
// completion.
func (p *phase) windows(round int, steal *stealSampler) []window {
	idx := make([]int, len(p.ends))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return p.ends[idx[a]].Before(p.ends[idx[b]]) })
	rounds := len(idx) / round
	n := min(measureWindows, rounds)
	if n == 0 {
		return nil
	}
	size := rounds / n * round
	var out []window
	from := p.start
	for k := 0; k < n; k++ {
		chunk := idx[k*size : (k+1)*size]
		if k == n-1 {
			chunk = idx[k*size:]
		}
		lat := make([]float64, len(chunk))
		for i, j := range chunk {
			lat[i] = p.lat[j]
		}
		to := p.ends[chunk[len(chunk)-1]]
		out = append(out, window{
			P50:    percentile(lat, 0.5),
			P90:    percentile(lat, 0.9),
			PerSec: float64(len(chunk)) / to.Sub(from).Seconds(),
			Steal:  steal.share(from, to),
		})
		from = to
	}
	return out
}

// stealSampler samples the machine's steal and total CPU time from
// /proc/stat every stealSampleEvery until stopped.
type stealSampler struct {
	mu      sync.Mutex
	samples []stealSample
	quit    chan struct{}
	done    chan struct{}
}

type stealSample struct {
	at           time.Time
	steal, total uint64
}

func startStealSampler() *stealSampler {
	s := &stealSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(stealSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	steal, total := cpuSteal()
	s.mu.Lock()
	s.samples = append(s.samples, stealSample{time.Now(), steal, total})
	s.mu.Unlock()
}

// stop ends the sampling with a last sample.
func (s *stealSampler) stop() {
	close(s.quit)
	<-s.done
	s.sample()
}

// share is the steal share between the last sample at or before from and
// the first at or after to (0 where /proc/stat is unavailable).
func (s *stealSampler) share(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, b := s.samples[0], s.samples[len(s.samples)-1]
	for _, x := range s.samples {
		if !x.at.After(from) {
			a = x
		}
		if !x.at.Before(to) {
			b = x
			break
		}
	}
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// measure runs the measured region of a workload. Without tracing it is
// one untraced phase of e.duration, measured in windows as described at
// measureWindows. With tracing the first half is untraced (the reference
// for the tracing overhead) and the second half runs with r.tracer
// recording spans; traced operations are numbered from 1<<40 so their
// operation ids never repeat untraced ones. round is the number of
// operations in a round of the workload.
func (e *env) measure(r *report, clients, round int, fn op) error {
	if !resetPeakRSS() {
		return fmt.Errorf("cannot reset the peak-RSS mark through /proc/self/clear_refs")
	}
	steal := startStealSampler()
	if !e.trace {
		r.phase = closedLoop(clients, e.duration, round, 0, fn)
	} else {
		half := e.duration / 2
		r.phase = closedLoop(clients, half, round, 0, fn)
		r.tracer.on.Store(true)
		r.traced = closedLoop(clients, half, round, 1<<40, fn)
		r.tracer.on.Store(false)
	}
	steal.stop()
	r.stealShare = steal.share(r.phase.start, time.Now())
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.peakRSSMB = rss
	if e.trace {
		return nil
	}
	r.windows = r.phase.windows(round, steal)
	r.kept = keepWindows(r.windows)
	return nil
}

// keepWindows drops the windows whose steal share is above maxStealShare.
// Where that would leave fewer than half the windows, it keeps the half
// (rounded up) with the least steal instead, so a noisy host still gives
// a result, taken over its quietest windows.
func keepWindows(all []window) []window {
	var kept []window
	for _, w := range all {
		if w.Steal <= maxStealShare {
			kept = append(kept, w)
		}
	}
	if 2*len(kept) >= len(all) {
		return kept
	}
	quiet := slices.Clone(all)
	slices.SortStableFunc(quiet, func(a, b window) int { return cmp.Compare(a.Steal, b.Steal) })
	return quiet[:(len(all)+1)/2]
}

// cpuSteal reads the machine-wide steal and total CPU time from /proc/stat
// in clock ticks (0, 0 where it is unavailable).
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already counted in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
