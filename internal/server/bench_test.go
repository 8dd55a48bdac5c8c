package server_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"energysched/internal/server"
)

// benchSolve drives the cache-hit solve path through the full HTTP
// handler stack. The cache is warmed first so iterations measure the
// request plumbing — admission, decode, keying, cache lookup and (when
// enabled) tracing — rather than solver time, which is where
// per-request observability overhead would show if it existed.
func benchSolve(b *testing.B, cfg server.Config, instance string) {
	h := server.New(cfg).Handler()
	body := `{"instance":` + instance + `}`
	if rec := doReq(h, newRequest("POST", "/v1/solve", body)); rec.Code != 200 {
		b.Fatalf("warm solve: %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body))
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("solve: %d", rec.Code)
		}
	}
}

// BenchmarkSolveCachedTraced and BenchmarkSolveCachedUntraced send
// chainInstance without a mapping, so every hit still list-schedules
// the instance to learn its key.
func BenchmarkSolveCachedTraced(b *testing.B) { benchSolve(b, server.Config{}, chainInstance) }

func BenchmarkSolveCachedUntraced(b *testing.B) {
	benchSolve(b, server.Config{DisableTracing: true}, chainInstance)
}

// BenchmarkSolveCachedMapped sends the same instance with its mapping
// given, so a hit is keyed from the wire form and never builds it.
func BenchmarkSolveCachedMapped(b *testing.B) {
	benchSolve(b, server.Config{}, chainInstanceMapped)
}

// TestSolveCachedMappedAllocs pins the allocation count of a cache
// hit on a mapped instance, request and recorder construction
// included — the BenchmarkSolveCachedMapped iteration. The ceiling is
// the measured count: decode, key, fingerprint, cache lookup, the
// tracing middleware and httptest's own objects. Building the
// instance on a hit, as the unmapped benchmarks still do, costs about
// sixty more.
func TestSolveCachedMappedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	const ceiling = 56
	h := server.New(server.Config{}).Handler()
	body := `{"instance":` + chainInstanceMapped + `}`
	if rec := doReq(h, newRequest("POST", "/v1/solve", body)); rec.Code != 200 {
		t.Fatalf("warm solve: %d", rec.Code)
	}
	got := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)))
		if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("solve: %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	})
	if got > ceiling {
		t.Errorf("cache hit on a mapped instance allocates %v times, want ≤ %d", got, ceiling)
	}
}
