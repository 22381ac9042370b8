package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cobra "github.com/cobra-prov/cobra"
	"github.com/cobra-prov/cobra/internal/datagen/telephony"
	"github.com/cobra-prov/cobra/serve"
)

// whatif-serve: the steady state COBRA exists for. The telephony
// provenance is compressed once in set-up; two closed-loop keep-alive
// clients then POST scenario batches to an in-process cobra-serve over
// loopback HTTP. About 90% of requests carry 8 induced scenarios for the
// compressed dataset, the rest one leaf-level scenario for the full one,
// so the valuation layer runs at two working-set sizes.
const (
	serveClients     = 2
	servePool        = 128 // leaf-level scenarios
	serveCompBatches = 64  // distinct compressed-dataset requests
	serveBatch       = 8   // scenarios per compressed-dataset request
	serveFullShare   = 0.1 // share of requests sent to the full dataset
)

// spanHeader carries "<op id> <op span id>" from a traced client request
// to the server-side handler span.
const spanHeader = "X-Bench-Span"

type serveRequest struct {
	path      string
	body      []byte
	want      []byte // the expected response body, byte for byte
	scenarios []*cobra.Assignment
	ds        *cobra.Dataset // the dataset the request is addressed to
	monomials int            // monomials evaluated per scenario
}

type serveState struct {
	full, comp *cobra.Dataset
	res        *cobra.Result
	srv        *serve.Server
	hs         *http.Server
	url        string
	served     chan error
}

func (st *serveState) close() {
	st.hs.Shutdown(context.Background())
	<-st.served
	st.srv.Close()
}

func runWhatifServe(e *env) (*report, error) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(e.seed))
	names := cobra.NewNames()
	set := telephony.DirectProvenance(telephony.Config{Customers: e.scale.serveCustomers}, names)
	forest := cobra.Forest{telephony.PlansTree(names), telephony.MonthsTree(names, 12)}
	opts := cobra.Options{Workers: cobra.AutoWorkers()}
	r := &report{tracer: newTracer()}

	setup := func() (*serveState, error) {
		full, err := cobra.OpenDataset("full", set, forest, opts)
		if err != nil {
			return nil, err
		}
		res, err := full.Compress(ctx, set.Size()/3)
		if err != nil {
			return nil, err
		}
		comp, err := full.Apply(ctx, res.Cuts...)
		if err != nil {
			return nil, err
		}
		// The first EvalBatch compiles and memoizes each dataset's program.
		for _, ds := range []*cobra.Dataset{full, comp} {
			if _, err := ds.EvalBatch(ctx, nil); err != nil {
				return nil, err
			}
		}
		st := &serveState{full: full, comp: comp, res: res, srv: serve.New(serve.Config{MaxWorkers: cobra.AutoWorkers()})}
		if err := st.srv.Register("full", full); err != nil {
			return nil, err
		}
		if err := st.srv.Register("comp", comp); err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.url = "http://" + ln.Addr().String()
		st.hs = &http.Server{Handler: tracedHandler{h: st.srv.Handler(), tr: r.tracer}}
		st.served = make(chan error, 1)
		go func() { st.served <- st.hs.Serve(ln) }()
		return st, nil
	}
	st, durs, err := timeSetups(e.scale, setup, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	r.setup = durs

	// Inputs and reference answers, computed with valuation.EvalSet.
	pool := leafScenarios(rng, names, forestLeaves(forest), servePool, 3)
	inducedPool := induced(pool, st.res.Cuts)
	compSet := cobra.ApplyWith(set, opts, st.res.Cuts...)
	fullRef := evalSetRows(set, pool)
	compRef := evalSetRows(compSet, inducedPool)
	r.maxRelErr = abstractionError(set, st.res.Cuts, forestLeaves(forest), opts)

	// reqs holds the servePool full-dataset requests, then the
	// serveCompBatches compressed-dataset ones.
	reqs := make([]serveRequest, servePool+serveCompBatches)
	for i := range servePool {
		req, err := newServeRequest("full", pool[i:i+1], fullRef[i:i+1], set.Size())
		if err != nil {
			return nil, err
		}
		req.ds = st.full
		reqs[i] = req
	}
	for i := range serveCompBatches {
		var scen []*cobra.Assignment
		var rows [][]float64
		for k := 0; k < serveBatch; k++ {
			j := rng.Intn(servePool)
			scen = append(scen, inducedPool[j])
			rows = append(rows, compRef[j])
		}
		req, err := newServeRequest("comp", scen, rows, compSet.Size())
		if err != nil {
			return nil, err
		}
		req.ds = st.comp
		reqs[servePool+i] = req
	}
	// sent counts how often the traced phase sent each request.
	sent := make([]atomic.Int64, len(reqs))

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	rngs := make([]*rand.Rand, serveClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(e.seed*7919 + int64(c) + 1))
	}
	tr := r.tracer
	fn := func(c int, id int64) (func() error, error) {
		k := servePool + rngs[c].Intn(serveCompBatches)
		if rngs[c].Float64() < serveFullShare {
			k = rngs[c].Intn(servePool)
		}
		req := &reqs[k]
		hreq, err := http.NewRequest(http.MethodPost, st.url+req.path, bytes.NewReader(req.body))
		if err != nil {
			return nil, err
		}
		opSpan := tr.begin(id, 0, "op")
		if opSpan != nil {
			hreq.Header.Set(spanHeader, strconv.FormatInt(id, 10)+" "+strconv.FormatInt(opSpan.id(), 10))
		}
		resp, err := client.Do(hreq)
		if err != nil {
			opSpan.end()
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		opSpan.end()
		if err != nil {
			return nil, err
		}
		return func() error {
			if opSpan != nil {
				sent[k].Add(1)
			}
			tr.add("serve.response_bytes", float64(len(body)))
			if resp.StatusCode/100 != 2 {
				tr.add("serve.non2xx", 1)
				return fmt.Errorf("status %d: %s: %w", resp.StatusCode, strings.TrimSpace(string(body)), errCheck)
			}
			return req.check(body)
		}, nil
	}

	// Warm up connections, caches and the heap before measuring.
	if p := closedLoop(serveClients, e.scale.warmup, 1, 1<<50, fn); p.failed > 0 {
		return nil, fmt.Errorf("warm-up failed: %s", strings.Join(p.errs, "; "))
	}
	if err := e.measure(r, serveClients, 1, fn); err != nil {
		return nil, err
	}
	if e.trace {
		// The valuation layer's share of a traced request is the direct
		// Dataset.EvalBatch of the same batch, timed after the measured
		// region and weighted by how often the traced phase sent it; the
		// serve layer's own time is the handler span minus that.
		evalMS, err := directEvalMS(ctx, reqs)
		if err != nil {
			return nil, err
		}
		var ops, ms, scen, mons float64
		for k := range reqs {
			n := float64(sent[k].Load())
			ops += n
			ms += n * evalMS[k]
			scen += n * float64(len(reqs[k].scenarios))
			mons += n * float64(len(reqs[k].scenarios)*reqs[k].monomials)
		}
		if ops > 0 {
			r.layers = map[string]float64{
				"valuation.eval_ms":        ms / ops,
				"valuation.scenarios":      scen / ops,
				"valuation.monomial_evals": mons / ops,
			}
		}
	}
	return r, nil
}

// directEvalReps is how often directEvalMS times each request.
const directEvalReps = 3

// directEvalMS times Dataset.EvalBatch on every request's batch, in ms, as
// the median of directEvalReps runs. serveClients goroutines evaluate at
// once, each starting at a different request, so the evaluations compete
// for the CPUs as the closed loop's requests do.
func directEvalMS(ctx context.Context, reqs []serveRequest) ([]float64, error) {
	samples := make([][]float64, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, serveClients)
	for c := range serveClients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range directEvalReps * len(reqs) {
				k := (i + c*len(reqs)/serveClients) % len(reqs)
				t0 := time.Now()
				if _, err := reqs[k].ds.EvalBatch(ctx, reqs[k].scenarios); err != nil {
					errs[c] = err
					return
				}
				d := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				samples[k] = append(samples[k], d)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]float64, len(reqs))
	for k, xs := range samples {
		out[k] = percentile(xs, 0.5)
	}
	return out, nil
}

// newServeRequest encodes one POST /eval request and its expected response.
func newServeRequest(dataset string, scenarios []*cobra.Assignment, rows [][]float64, monomials int) (serveRequest, error) {
	var er serve.EvalRequest
	for _, a := range scenarios {
		m := map[string]float64{}
		for _, it := range a.Items() {
			m[it.Name] = it.Value
		}
		er.Assignments = append(er.Assignments, m)
	}
	body, err := json.Marshal(er)
	if err != nil {
		return serveRequest{}, err
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(serve.EvalResponse{Rows: rows}); err != nil {
		return serveRequest{}, err
	}
	return serveRequest{
		path:      "/v1/datasets/" + dataset + "/eval",
		body:      body,
		want:      want.Bytes(),
		scenarios: scenarios,
		monomials: monomials,
	}, nil
}

// check compares a response body with the encoded reference rows. The
// reference comes from valuation.EvalSet, which may round the last bit
// differently from the compiled Program, so the bodies are walked token by
// token: equal bytes pass unparsed, and only numbers whose text differs
// are parsed and compared within 1e-12.
func (q *serveRequest) check(body []byte) error {
	want := q.want
	for i, j := 0, 0; i < len(body) || j < len(want); {
		if i < len(body) && j < len(want) && body[i] == want[j] {
			i, j = i+1, j+1
			continue
		}
		// Back up to the start of the differing number on both sides. A
		// difference outside a number, where both tokens read the same, is
		// a difference of structure and fails.
		for i > 0 && isNumberByte(body[i-1]) {
			i--
		}
		for j > 0 && isNumberByte(want[j-1]) {
			j--
		}
		ie, je := i, j
		for ie < len(body) && isNumberByte(body[ie]) {
			ie++
		}
		for je < len(want) && isNumberByte(want[je]) {
			je++
		}
		got, err1 := strconv.ParseFloat(string(body[i:ie]), 64)
		exp, err2 := strconv.ParseFloat(string(want[j:je]), 64)
		if err1 != nil || err2 != nil || bytes.Equal(body[i:ie], want[j:je]) || !(relErr(got, exp) <= 1e-12) {
			return fmt.Errorf("%s: response differs from the reference at byte %d (%q, want %q): %w",
				q.path, i, body[i:min(ie+1, len(body))], want[j:min(je+1, len(want))], errCheck)
		}
		i, j = ie, je
	}
	return nil
}

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E'
}

// tracedHandler wraps the server's handler in a serve.handler span while
// tracing is enabled; the span's parent is the client's op span named by
// the request's spanHeader.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.tr.enabled() {
		t.h.ServeHTTP(w, r)
		return
	}
	var op, parent int64
	if f := strings.Fields(r.Header.Get(spanHeader)); len(f) == 2 {
		op, _ = strconv.ParseInt(f[0], 10, 64)
		parent, _ = strconv.ParseInt(f[1], 10, 64)
	}
	a := t.tr.begin(op, parent, "serve.handler")
	t.h.ServeHTTP(w, r)
	a.end()
}
