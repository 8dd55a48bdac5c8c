package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"energysched/internal/server"
)

// mappedInstance is the warmed instance of TestNoFalseCacheHit: two
// processors, a chain a → b → c, with a and b on processor 0.
func mappedInstance(processors, edges, mapping string) string {
	return `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":1}],` +
		`"edges":` + edges + `,` + processors + `"mapping":` + mapping + `,` +
		`"speedModel":{"kind":"continuous","fmin":0.05,"fmax":10},"deadline":10}`
}

// TestNoFalseCacheHit warms a mapped instance, whose hits are keyed
// from the wire form without building it, and then sends near-miss
// siblings that Build rejects. None may be served the warmed bytes:
// each is a 400 on /v1/solve and an item error on /v1/batch. The
// processors case is the one field Build checks that the digest does
// not cover, so it guards the keyer's own check.
func TestNoFalseCacheHit(t *testing.T) {
	const edges, mapping = `[[0,1],[1,2]]`, `[[0,1],[2]]`
	warm := mappedInstance(`"processors":2,`, edges, mapping)
	h := server.New(server.Config{}).Handler()
	if rec := do(h, "POST", "/v1/solve", `{"instance":`+warm+`}`); rec.Code != 200 {
		t.Fatalf("warm solve: %d %s", rec.Code, rec.Body.Bytes())
	}

	// The same problem spelled differently is a hit.
	for name, inst := range map[string]string{
		"same body":          warm,
		"processors omitted": mappedInstance(``, edges, mapping),
		"edges permuted":     mappedInstance(`"processors":2,`, `[[1,2],[0,1],[1,2]]`, mapping),
	} {
		rec := do(h, "POST", "/v1/solve", `{"instance":`+inst+`}`)
		if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
			t.Errorf("%s: status %d, X-Cache %q, want a 200 hit", name, rec.Code, rec.Header().Get("X-Cache"))
		}
	}

	siblings := map[string]string{
		"processors mismatch": mappedInstance(`"processors":3,`, edges, mapping),
		"cycle":               mappedInstance(`"processors":2,`, `[[0,1],[1,2],[2,0]]`, mapping),
		"self-loop":           mappedInstance(`"processors":2,`, `[[0,1],[1,2],[1,1]]`, mapping),
		"edge out of range":   mappedInstance(`"processors":2,`, `[[0,1],[1,2],[2,3]]`, mapping),
		"task mapped twice":   mappedInstance(`"processors":2,`, edges, `[[0,1],[2,1]]`),
		"task unmapped":       mappedInstance(`"processors":2,`, edges, `[[0,1],[]]`),
		"order against edges": mappedInstance(`"processors":2,`, edges, `[[1,0],[2]]`),
	}
	for name, inst := range siblings {
		rec := do(h, "POST", "/v1/solve", `{"instance":`+inst+`}`)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("solve %s: status %d (X-Cache %q), want 400\nbody: %s",
				name, rec.Code, rec.Header().Get("X-Cache"), rec.Body.Bytes())
		}

		rec = do(h, "POST", "/v1/batch", `{"instances":[`+inst+`,`+warm+`]}`)
		if rec.Code != 200 {
			t.Fatalf("batch %s: status %d\nbody: %s", name, rec.Code, rec.Body.Bytes())
		}
		resp := decode[struct {
			Items []struct {
				Result json.RawMessage `json:"result"`
				Error  string          `json:"error"`
				Cached bool            `json:"cached"`
			} `json:"items"`
		}](t, rec)
		if got := resp.Items[0]; got.Error == "" || got.Cached || len(got.Result) != 0 {
			t.Errorf("batch %s: item error %q, cached %t, result %s; want an error and no result",
				name, got.Error, got.Cached, got.Result)
		}
		if got := resp.Items[1]; !got.Cached {
			t.Errorf("batch %s: warmed sibling item error %q, cached %t; want a cached result", name, got.Error, got.Cached)
		}
	}
}

// TestCancelledSolveIsNotATimeout: a solve whose caller goes away (a
// closed connection, a router's losing hedge leg) must not count in
// /stats timeouts, while a solve that runs out of its deadline does.
func TestCancelledSolveIsNotATimeout(t *testing.T) {
	h := server.New(server.Config{SolveTimeout: 10 * time.Second}).Handler()
	body := `{"instance":` + slowInstance() + `,"solver":"` + slowSolverName + `"}`

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", strings.NewReader(body)).WithContext(ctx))
		done <- rec.Code
	}()
	// Cancel once the solve holds its slot, i.e. is mid-solve.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if decode[struct {
			InFlight int64 `json:"inFlight"`
		}](t, do(h, "GET", "/stats", "")).InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the slow solve never started")
		}
	}
	cancel()
	<-done
	if got := decode[statsJSON](t, do(h, "GET", "/stats", "")).Timeouts; got != 0 {
		t.Errorf("timeouts after a cancelled solve = %d, want 0", got)
	}

	rec := do(h, "POST", "/v1/solve", `{"instance":`+slowInstance()+`,"solver":"`+slowSolverName+`","timeoutMs":20}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline solve: status %d, want 504", rec.Code)
	}
	if got := decode[statsJSON](t, do(h, "GET", "/stats", "")).Timeouts; got != 1 {
		t.Errorf("timeouts after a missed deadline = %d, want 1", got)
	}
}
