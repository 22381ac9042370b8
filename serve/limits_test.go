package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
