package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"energysched/internal/obs"
)

// Span layers. A request's spans share its X-Request-Id: the client's
// round trip, the router's handler (cluster only) and each backend
// handler that served it (more than one when the router hedged).
const (
	layerClient = iota
	layerRouter
	layerServer
)

var layerNames = [...]string{"client", "router", "server"}

type span struct {
	layer      int
	id         string
	start, end int64 // ns since the recorder's base
}

// recorder keeps the traced run's spans in memory; they are written
// out once, when the run ends. A nil recorder records nothing, which
// is how the untraced runs carry no spans at all.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) add(layer int, id string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{layer: layer, id: id, start: int64(start.Sub(r.base)), end: int64(end.Sub(r.base))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// wrap returns h with a span around each ServeHTTP, keyed by the
// request's X-Request-Id; a nil recorder returns h itself.
func (r *recorder) wrap(layer int, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, req)
		r.add(layer, req.Header.Get(obs.RequestIDHeader), t0, time.Now())
	})
}

// writeOut writes every span as "layer id start_ns end_ns" lines.
func (r *recorder) writeOut(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s %s %d %d\n", layerNames[s.layer], s.id, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTimes are the per-layer means the spans give, in microseconds.
type spanTimes struct {
	handlerUS  float64 // backend handler span
	routerSelf float64 // router span minus the backend spans inside it
	clientSelf float64 // client span minus its child (router or backend)
}

// selfTimes joins the spans of the closed loop's requests by request
// ID and computes each layer's self time: its span's duration minus
// the part of that interval its child spans cover.
func (r *recorder) selfTimes() spanTimes {
	r.mu.Lock()
	defer r.mu.Unlock()
	byID := map[string][]span{}
	for _, s := range r.spans {
		byID[s.id] = append(byID[s.id], s)
	}
	var handler, routerSelf, clientSelf []float64
	for _, group := range byID {
		var client, router, servers []span
		for _, s := range group {
			switch s.layer {
			case layerClient:
				client = append(client, s)
			case layerRouter:
				router = append(router, s)
			case layerServer:
				servers = append(servers, s)
			}
		}
		if len(client) == 0 {
			continue // set-up, /stats or job polls, not a timed request
		}
		for _, ss := range servers {
			handler = append(handler, float64(ss.end-ss.start)/1e3)
		}
		for _, rs := range router {
			routerSelf = append(routerSelf, float64(rs.end-rs.start-covered(rs, servers))/1e3)
		}
		children := servers
		if len(router) > 0 {
			children = router
		}
		for _, cs := range client {
			clientSelf = append(clientSelf, float64(cs.end-cs.start-covered(cs, children))/1e3)
		}
	}
	return spanTimes{handlerUS: mean(handler), routerSelf: mean(routerSelf), clientSelf: mean(clientSelf)}
}

// covered returns how many ns of parent's interval the children cover,
// counting overlapping children once.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
