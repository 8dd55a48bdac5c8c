// Command perfbench is the repository's benchmark: it serves the
// solve service, the router and the campaign engine in-process on
// loopback listeners, drives them with closed-loop clients over inputs
// generated from --seed, checks every answer, and prints each metric by
// name with its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then traced (spans around each
// handler and each client call), times each layer's public functions
// on the same inputs, and reports the per-layer metrics; the traced
// run's spans are written to .bench_build/trace/<workload>.spans.
//
// Any wrong answer, and any run outside the regime its workload names
// (shed or timed-out requests, a solve-hot hit ratio below 0.99, a
// solve-cold hit ratio above 0.01, a router failover), fails the run:
// it prints the problems, reports correct=false and exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// An untraced run sets its workload up at least setupReps times and
// until setupBudget has passed; setup_s is the median. Short set-ups
// thus get many samples, so one stall does not move the median.
const (
	setupReps   = 5
	setupBudget = time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, " | "))
	seed := fs.Int64("seed", 1, "seed every input of the run is generated from")
	seconds := fs.Int("seconds", 20, "length of each timed phase in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *name) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames, " | "))
		return 2
	}
	fmt.Fprintf(stdout, "machine: cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d workload=%s seconds=%d trace=%d\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *name, *seconds, *trace)

	dur := time.Duration(*seconds) * time.Second
	var res *result
	var problems []string
	var err error
	if *trace == 0 {
		res, problems, err = untracedRun(stdout, *name, *seed, dur)
	} else {
		res, problems, err = tracedRun(stdout, *name, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range problems {
		fmt.Fprintln(stderr, "perfbench: FAIL:", p)
	}
	if !res.Correct {
		res.Metrics = map[string]metricValue{}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// phase runs one timed phase on b and judges it: wrong answers found
// by the re-computing checks count as failed requests, and a guard
// that finds the wrong regime fails the run.
func phase(b *bench, dur time.Duration) (*phaseResult, *result, []string, error) {
	ph, err := b.run(dur)
	if err != nil {
		return nil, nil, nil, err
	}
	res := &result{Attempted: ph.load.attempted + len(ph.jobS), Failed: ph.load.failed}
	problems := append([]string(nil), ph.load.errs...)
	for _, e := range b.verify(ph) {
		res.Failed++
		problems = append(problems, e.Error())
	}
	problems = append(problems, b.guards(ph)...)
	res.Correct = len(problems) == 0
	return ph, res, problems, nil
}

func untracedRun(w io.Writer, name string, seed int64, dur time.Duration) (*result, []string, error) {
	var setupS, setupCPU []float64
	var b *bench
	for start := time.Now(); len(setupS) < setupReps || time.Since(start) < setupBudget; {
		if b != nil {
			b.close()
		}
		t0, cpu0 := time.Now(), processCPU()
		var err error
		if b, err = setup(name, seed, nil); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, (processCPU() - cpu0).Seconds())
	}
	defer b.close()
	ph, res, problems, err := phase(b, dur)
	if err != nil {
		return nil, nil, err
	}
	e2e := endToEndMetrics(ph)
	e2e["setup_s"] = median(setupS)
	res.Metrics = map[string]metricValue{}
	fmt.Fprintf(w, "end-to-end (%d requests, %d ok, over %.3f s; %d set-ups, median %.4f CPU s):\n",
		ph.load.attempted, ph.load.ok(), ph.load.elapsed.Seconds(), len(setupS), median(setupCPU))
	for _, d := range endToEnd {
		res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		fmt.Fprintf(w, "  %-16s %14.6f %-6s  %s\n", d.name, e2e[d.name], d.unit, d.moves)
	}
	printExtras(w, name, ph, res)
	return res, problems, nil
}

// endToEndMetrics computes the timed phase's end-to-end metrics, all
// but setup_s.
func endToEndMetrics(ph *phaseResult) map[string]float64 {
	l := ph.load
	return map[string]float64{
		"latency_p50_ms": percentile(l.latMS, 0.50),
		"cpu_us_per_req": l.cpuUSPerReq,
		"allocs_per_req": ratio(float64(l.mallocs), float64(l.ok())),
		"heap_peak_mb":   l.heapPeakMB,
		"throughput_rps": float64(l.ok()) / l.elapsed.Seconds(),
		"latency_p90_ms": percentile(l.latMS, 0.90),
		"latency_p99_ms": percentile(l.latMS, 0.99),
	}
}

// printExtras prints the numbers a reader needs beside the gated
// metrics: the wall-clock rate and tail, the error rate, the sample
// count behind the percentiles, and on campaign the trial rate and the
// job times.
func printExtras(w io.Writer, name string, ph *phaseResult, res *result) {
	e2e := endToEndMetrics(ph)
	for _, d := range wallClock {
		fmt.Fprintf(w, "  %-16s %14.6f %-6s  %s\n", d.name, e2e[d.name], d.unit, d.moves)
	}
	fmt.Fprintf(w, "  %-16s %14.6f %-6s  process CPU over wall time x nproc in the timed phase\n", "cpu_busy", ph.load.cpu.Seconds()/ph.load.elapsed.Seconds()/float64(runtime.NumCPU()), "ratio")
	fmt.Fprintf(w, "  %-16s %14.6f %-6s  failed %d of %d attempted\n", "error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	fmt.Fprintf(w, "  %-16s %14d %-6s  samples behind the percentiles\n", "latency_samples", len(ph.load.latMS), "count")
	if name == wlCampaign {
		fmt.Fprintf(w, "  %-16s %14.1f %-6s  simulate trials per wall second (%d trials a request)\n", "trials_per_s", float64(ph.load.ok()*simTrials)/ph.load.elapsed.Seconds(), "1/s", simTrials)
		fmt.Fprintf(w, "  %-16s %14.6f %-6s  median submit-to-done of %d jobs of %d trials: %v\n", "job_s", median(ph.jobS), "s", len(ph.jobS), jobTrials, ph.jobS)
	}
}

func tracedRun(w io.Writer, name string, seed int64, dur time.Duration) (*result, []string, error) {
	ub, err := setup(name, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	upr, ures, problems, err := phase(ub, dur)
	ub.close()
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	tb, err := setup(name, seed, rec)
	if err != nil {
		return nil, nil, err
	}
	defer tb.close()
	tpr, tres, tproblems, err := phase(tb, dur)
	if err != nil {
		return nil, nil, err
	}
	problems = append(problems, tproblems...)
	res := &result{Correct: ures.Correct && tres.Correct, Attempted: ures.Attempted + tres.Attempted, Failed: ures.Failed + tres.Failed}

	fmt.Fprintln(w, "tracing overhead (traced minus untraced, as a share of untraced):")
	u, t := endToEndMetrics(upr), endToEndMetrics(tpr)
	for _, d := range slices.Concat(endToEnd[1:], wallClock) {
		fmt.Fprintf(w, "  %-16s untraced %14.6f  traced %14.6f %-6s  %+7.2f%%\n", d.name, u[d.name], t[d.name], d.unit, 100*(t[d.name]-u[d.name])/u[d.name])
	}
	if !res.Correct {
		return res, problems, nil
	}
	layers, err := tb.layerPasses(tpr, upr)
	if err != nil {
		return nil, nil, err
	}
	if err := writeSpans(rec, name); err != nil {
		return nil, nil, err
	}
	res.Metrics = map[string]metricValue{}
	fmt.Fprintln(w, "per-layer (means; moves = the end-to-end metric it should move):")
	for _, d := range perLayer {
		res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
		fmt.Fprintf(w, "  %-32s %14.4f %-5s  %s\n", d.name, layers[d.name], d.unit, d.moves)
	}
	return res, problems, nil
}

func writeSpans(rec *recorder, name string) error {
	dir := filepath.Join(buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.writeOut(filepath.Join(dir, name+".spans"))
}

// cpuModel returns the CPU model name the kernel reports, "unknown"
// where it reports none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
