package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"energysched/internal/client"
	"energysched/internal/obs"
)

// request is one generated request of a closed loop: the body to send
// and the check its 2xx response body must pass.
type request struct {
	body  []byte
	check func(resp []byte) error
}

// loadResult is what one closed-loop phase measured.
type loadResult struct {
	latMS     []float64 // latencies of the requests that passed, sorted
	done      []sample  // the same requests with their completion times
	attempted int
	failed    int
	errs      []string // the first few failures
	elapsed   time.Duration
	mallocs   uint64        // process-wide heap allocations during the phase
	cpu       time.Duration // process user+system CPU time during the phase
	// Windowed: medians over the phase's full windows of each window's
	// highest HeapInuse and of its CPU time per completed request.
	heapPeakMB, cpuUSPerReq float64
	solvers                 map[string]int
}

// sample is one passed request: when it completed, as an offset from
// the start of the phase, and its latency.
type sample struct {
	at    time.Duration
	latMS float64
}

func (r *loadResult) ok() int { return r.attempted - r.failed }

func (r *loadResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// closedLoop runs clients callers that each send their next request
// only once the previous reply is read, as the service's callers do,
// until dur has passed.
// Requests are numbered in claim order and next builds request k. A
// request fails on a transport error, a non-2xx status or a failed
// check. Every request carries its number as X-Request-Id, so spans
// the servers record under rec join the client's span.
func closedLoop(cl *client.Client, path string, clients int, dur time.Duration, rec *recorder, next func(k int) request) *loadResult {
	var claimed atomic.Int64
	results := make([]*loadResult, clients)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	start := time.Now()
	smp := startSampler(start)
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range results {
		res := &loadResult{solvers: map[string]int{}}
		results[c] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(claimed.Add(1) - 1)
				req := next(k)
				id := "pb-" + strconv.Itoa(k)
				ctx := obs.ContextWithRequestID(context.Background(), id)
				res.attempted++
				t0 := time.Now()
				resp, err := cl.Post(ctx, path, req.body)
				t1 := time.Now()
				rec.add(layerClient, id, t0, t1)
				switch {
				case err != nil:
					res.fail(err)
				case resp.Status/100 != 2:
					res.fail(fmt.Errorf("request %d: status %d: %s", k, resp.Status, firstLine(resp.Body)))
				default:
					if err := req.check(resp.Body); err != nil {
						res.fail(fmt.Errorf("request %d: %w", k, err))
						continue
					}
					res.done = append(res.done, sample{t1.Sub(start), float64(t1.Sub(t0)) / 1e6})
					res.solvers[solverOf(resp.Body)]++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&after)
	out := &loadResult{solvers: map[string]int{}, elapsed: elapsed, cpu: cpu, mallocs: after.Mallocs - before.Mallocs}
	for _, r := range results {
		out.done = append(out.done, r.done...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.errs = append(out.errs, r.errs...)
		for s, n := range r.solvers {
			out.solvers[s] += n
		}
	}
	for _, d := range out.done {
		out.latMS = append(out.latMS, d.latMS)
	}
	sort.Float64s(out.latMS)
	smp.finish(out)
	return out
}

// window is the length of the windows a phase is cut into; the
// windowed metrics are medians over its full windows, so a burst of
// CPU taken by the machine's other tenants moves only the windows it
// falls in, not the run's figure.
const window = time.Second

// sampler samples the process every 10 ms during a phase and keeps,
// per window, the highest HeapInuse (read through runtime/metrics,
// which does not stop the world) and the process CPU time at the
// window's first sample.
type sampler struct {
	start      time.Time
	heap       []metrics.Sample
	peaks      []float64
	cpuAt      []time.Duration
	stop, done chan struct{}
}

func startSampler(start time.Time) *sampler {
	s := &sampler{
		start: start,
		heap:  []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			s.read()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) read() {
	metrics.Read(s.heap)
	v := float64(s.heap[0].Value.Uint64() + s.heap[1].Value.Uint64())
	i := int(time.Since(s.start) / window)
	for len(s.peaks) <= i {
		s.peaks = append(s.peaks, 0)
		s.cpuAt = append(s.cpuAt, processCPU())
	}
	s.peaks[i] = max(s.peaks[i], v)
}

// finish stops the sampler, waits for it, and sets the windowed
// metrics of r from its full windows; a phase shorter than one window
// gets its whole-phase CPU per request and its highest heap sample.
func (s *sampler) finish(r *loadResult) {
	close(s.stop)
	<-s.done
	s.read() // closes the last full window if no tick has yet
	full := min(int(r.elapsed/window), len(s.cpuAt)-1)
	if full < 1 {
		r.heapPeakMB = slices.Max(s.peaks) / (1 << 20)
		r.cpuUSPerReq = ratio(float64(r.cpu)/1e3, float64(r.ok()))
		return
	}
	counts := make([]int, full)
	for _, d := range r.done {
		if i := int(d.at / window); i < full {
			counts[i]++
		}
	}
	var perReq []float64
	for i, n := range counts {
		if n > 0 {
			perReq = append(perReq, float64(s.cpuAt[i+1]-s.cpuAt[i])/1e3/float64(n))
		}
	}
	r.heapPeakMB = median(s.peaks[:full]) / (1 << 20)
	r.cpuUSPerReq = median(perReq)
}

// newClient returns a client with its own transport, so closing it
// closes every connection the phase opened. No retries: a shed or a
// transport error must count as a failure, not be hidden.
func newClient(baseURL string, conns int) (*client.Client, func(), error) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	cl, err := client.New(client.Config{BaseURL: baseURL, HTTPClient: &http.Client{Transport: tr, Timeout: time.Minute}})
	if err != nil {
		return nil, nil, err
	}
	return cl, tr.CloseIdleConnections, nil
}

var solverKey = []byte(`"solver": "`)

// solverOf returns the registry name in a result body (the first
// "solver" member of an indented MarshalResult document, or of the
// result block of a simulate response), "" when there is none.
func solverOf(body []byte) string {
	for _, key := range [][]byte{solverKey, []byte(`"solver":"`)} {
		if i := bytes.Index(body, key); i >= 0 {
			rest := body[i+len(key):]
			if j := bytes.Index(rest, []byte(`"`)); j >= 0 {
				return string(rest[:j])
			}
		}
	}
	return ""
}

func firstLine(b []byte) string {
	for i, c := range b {
		if c == '\n' || i == 200 {
			return string(b[:i])
		}
	}
	return string(b)
}

// processCPU returns the user plus system CPU time the process has
// used so far. Unlike wall time it does not count time the machine
// gave to other tenants.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
