package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	Name       string `json:"name"`
	Op         int64  `json:"op"`
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent"` // 0 for a root span
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"` // process-wide heap allocation during the span
}

// tracer records spans in memory while enabled and writes them out when
// the run ends. Counts recorded with add are summed per name. A nil or
// disabled tracer records nothing, so untraced operations call straight
// through.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

// enabled reports whether spans are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// active is an open span.
type active struct {
	t      *tracer
	s      span
	alloc0 uint64
}

// begin opens a span of operation op under parent (0 for a root).
func (t *tracer) begin(op, parent int64, name string) *active {
	if !t.enabled() {
		return nil
	}
	a := &active{t: t, s: span{Name: name, Op: op, ID: t.nextID.Add(1), Parent: parent}}
	a.alloc0 = heapAllocs()
	a.s.StartNS = time.Since(t.t0).Nanoseconds()
	return a
}

// id returns the span's id (0 for a span that is not recorded).
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

// end closes the span and stores it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.s.EndNS = time.Since(a.t.t0).Nanoseconds()
	a.s.AllocBytes = heapAllocs() - a.alloc0
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(op, parent int64, name string, fn func() error) error {
	a := t.begin(op, parent, name)
	err := fn()
	a.end()
	return err
}

// add sums a count under name while tracing is enabled.
func (t *tracer) add(name string, v float64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// heapAllocs reads the cumulative heap allocation counter. runtime/metrics
// reads it without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// layerMetrics derives the per-layer metrics from the recorded spans over
// ops traced operations:
//   - <name>_ms: mean self time per operation of the spans named <name>
//     (a span's duration minus the time its child spans cover);
//   - <layer>.alloc_mb: mean heap MB allocated per operation inside the
//     layer's spans;
//   - every count recorded with add, as a mean per operation;
//   - trace.layer_share: the share of root "op" span time covered by its
//     child layer spans.
func (t *tracer) layerMetrics(ops int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]float64{}
	if ops == 0 {
		return out
	}
	childNS := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	var opNS, coveredNS int64
	for _, s := range t.spans {
		dur := s.EndNS - s.StartNS
		if s.Name == "op" {
			opNS += dur
			coveredNS += childNS[s.ID]
			continue
		}
		self := dur - childNS[s.ID]
		out[s.Name+"_ms"] += float64(self) / 1e6 / float64(ops)
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer+".alloc_mb"] += float64(s.AllocBytes) / (1 << 20) / float64(ops)
	}
	if opNS > 0 {
		out["trace.layer_share"] = float64(coveredNS) / float64(opNS)
	}
	for k, v := range t.counts {
		out[k] = v / float64(ops)
	}
	return out
}

// writeFile writes every recorded span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
