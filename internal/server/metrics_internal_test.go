package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTracingDisabledAddsZeroAllocs is the hot-path gate of the obs
// layer: with DisableTracing set, a request through the public
// Handler (the obs.WrapHandler pass-through) must allocate exactly
// what the same request costs against the bare mux — the wrapper and
// every nil-trace call site in the handlers add nothing. GET
// /v1/solvers is used because it is a traced-class (/v1/) path with a
// small, deterministic allocation profile.
func TestTracingDisabledAddsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	s := New(Config{DisableTracing: true})
	h := s.Handler()

	serve := func(target http.Handler) float64 {
		return testing.AllocsPerRun(200, func() {
			req := httptest.NewRequest("GET", "/v1/solvers", nil)
			rec := httptest.NewRecorder()
			target.ServeHTTP(rec, req)
		})
	}
	bare := serve(s.mux)
	wrapped := serve(h)
	if wrapped > bare {
		t.Fatalf("tracing-disabled path allocates %.1f/req, bare mux %.1f/req — wrapper must add 0", wrapped, bare)
	}
}
