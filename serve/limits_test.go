package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fillReader yields an endless run of one byte.
type fillReader byte

func (f fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestOversizedBodyIs413: a request body past maxRequestBytes is refused
// with a typed 413 error response, and the server keeps answering.
func TestOversizedBodyIs413(t *testing.T) {
	s := New(Config{MaxWorkers: 1})
	defer s.Close()
	body := io.MultiReader(
		strings.NewReader(`{"provenance":"`),
		io.LimitReader(fillReader('x'), maxRequestBytes),
		strings.NewReader(`"}`),
	)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/datasets/big", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want %d (%s)", rec.Code, http.StatusRequestEntityTooLarge, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&er); err != nil || !strings.Contains(er.Error, "exceeds") {
		t.Fatalf("oversized body: error response %+v (%v)", er, err)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after oversized body: status %d", rec.Code)
	}
}

// TestJobPanicMarksJobFailed: a panicking job body fails its job with the
// panic text instead of taking the daemon down.
func TestJobPanicMarksJobFailed(t *testing.T) {
	s := New(Config{MaxWorkers: 1})
	defer s.Close()
	id := s.jobs.start(&s.wg, func() (string, *CompressResult, error) {
		panic("capture exploded")
	})
	s.wg.Wait()

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
	var info JobInfo
	if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || info.State != jobFailed || !strings.Contains(info.Error, "capture exploded") {
		t.Fatalf("job after panic: status %d, info %+v; want state %q with the panic text", rec.Code, info, jobFailed)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz after job panic: status %d", rec.Code)
	}
}

// TestFinishedJobHistoryIsBounded: past maxFinishedJobs finished jobs the
// earliest-finished one is forgotten and answers the typed 404, while the
// newest finished jobs and a job still running stay pollable.
func TestFinishedJobHistoryIsBounded(t *testing.T) {
	s := New(Config{MaxWorkers: 1})
	defer s.Close()
	release := make(chan struct{})
	running := s.jobs.start(&s.wg, func() (string, *CompressResult, error) {
		<-release
		return "", nil, nil
	})
	// Each quick job is awaited on its own WaitGroup, which start releases
	// only after the job is recorded finished, so finishing order is
	// start order.
	var ids []string
	for range maxFinishedJobs + 1 {
		var wg sync.WaitGroup
		ids = append(ids, s.jobs.start(&wg, func() (string, *CompressResult, error) { return "", nil, nil }))
		wg.Wait()
	}
	poll := func(id string) (int, JobInfo) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		var info JobInfo
		if rec.Code == http.StatusOK {
			if err := json.NewDecoder(rec.Body).Decode(&info); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Code, info
	}
	if code, _ := poll(ids[0]); code != http.StatusNotFound {
		t.Fatalf("earliest finished job: status %d, want %d", code, http.StatusNotFound)
	}
	for _, id := range []string{ids[1], ids[len(ids)-1]} {
		if code, info := poll(id); code != http.StatusOK || info.State != jobDone {
			t.Fatalf("job %s: status %d, info %+v; want it kept as done", id, code, info)
		}
	}
	if code, info := poll(running); code != http.StatusOK || info.State != jobRunning {
		t.Fatalf("running job: status %d, info %+v; want it kept as running", code, info)
	}
	close(release)
	s.wg.Wait()
	if code, info := poll(running); code != http.StatusOK || info.State != jobDone {
		t.Fatalf("long-running job after finishing: status %d, info %+v", code, info)
	}
	if code, _ := poll(ids[1]); code != http.StatusNotFound {
		t.Fatalf("second finished job after the long one finished: status %d, want %d", code, http.StatusNotFound)
	}
}
