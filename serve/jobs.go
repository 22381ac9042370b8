package serve

import (
	"fmt"
	"sync"
)

// Job states.
const (
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// maxFinishedJobs caps how many finished (done or failed) jobs stay
// pollable. Past it, the job that finished earliest is forgotten and its
// id answers 404 like an unknown one; running jobs are never dropped.
const maxFinishedJobs = 1024

// jobs tracks background capture/compress work for status polling. Job
// bodies run on the server's base context, so shutdown cancels them; the
// server's WaitGroup waits for them to unwind.
type jobs struct {
	mu       sync.Mutex
	seq      int
	m        map[string]*job
	finished []string // ids of finished jobs still in m, in finishing order
}

type job struct {
	id string

	mu      sync.Mutex
	state   string
	err     string
	dataset string
	result  *CompressResult
}

func newJobs() *jobs {
	return &jobs{m: make(map[string]*job)}
}

// start registers a running job and spawns fn; fn's returns become the
// job's final state, and a panic in fn (including one re-raised from a
// worker pool) fails the job with the panic text instead of taking the
// daemon down. wg tracks the goroutine for graceful shutdown.
func (js *jobs) start(wg *sync.WaitGroup, fn func() (dataset string, result *CompressResult, err error)) string {
	js.mu.Lock()
	js.seq++
	j := &job{id: fmt.Sprintf("job-%d", js.seq), state: jobRunning}
	js.m[j.id] = j
	js.mu.Unlock()

	wg.Add(1)
	go func() {
		defer wg.Done()
		dataset, result, err := runJob(fn)
		j.mu.Lock()
		if err != nil {
			j.state = jobFailed
			j.err = err.Error()
		} else {
			j.state = jobDone
			j.dataset = dataset
			j.result = result
		}
		j.mu.Unlock()
		js.retire(j.id)
	}()
	return j.id
}

// retire records a finished job and forgets the earliest-finished ones
// beyond maxFinishedJobs.
func (js *jobs) retire(id string) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.finished = append(js.finished, id)
	if drop := len(js.finished) - maxFinishedJobs; drop > 0 {
		for _, old := range js.finished[:drop] {
			delete(js.m, old)
		}
		js.finished = append(js.finished[:0], js.finished[drop:]...)
	}
}

// runJob calls fn, turning a panic into an error.
func runJob(fn func() (string, *CompressResult, error)) (dataset string, result *CompressResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v", p)
		}
	}()
	return fn()
}

// info snapshots a job's status.
func (js *jobs) info(id string) (JobInfo, bool) {
	js.mu.Lock()
	j, ok := js.m[id]
	js.mu.Unlock()
	if !ok {
		return JobInfo{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobInfo{ID: j.id, State: j.state, Error: j.err, Dataset: j.dataset, Result: j.result}, true
}
