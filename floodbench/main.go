// Command floodbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed time, checks every output it can
// check, and prints as its last line one JSON object with the run's
// end-to-end metrics, or with --trace 1 its per-layer metrics.
//
//	bash floodbench/run.sh --workload meg-1m --seed 1 --seconds 25 --trace 0
//
// Every layer is measured from outside, by timing calls into its public
// functions; see README.md for the workloads, the metrics and the spans.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints, on every
// workload. A run that fails to set one of them is a benchmark bug.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"trial_s.p50", "s"},
	{"trials_per_s", "1/s"},
	{"cells_per_s", "1/s"},
	{"cell_ms.p50", "ms"},
	{"cell_ms.p99", "ms"},
	{"max_rss_mb", "MiB"},
}

// protocolLabels and modelLabels name the protocol-grid axes in metric
// names, in grid order.
var (
	protocolLabels = []string{"flood", "push", "pull", "pushpull", "parsimonious", "async"}
	modelLabels    = []string{"dense", "sparse", "waypoint"}
)

// perLayer lists the metrics every traced run prints. A layer the
// workload does not call reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"edgemeg.step_ns_per_step", "ns"},
		{"edgemeg.step_ns_per_churn", "ns"},
		{"edgemeg.deltas_ns_per_step", "ns"},
		{"edgemeg.build_s", "s"},
		{"edgemeg.resident_mb", "MiB"},
		{"edgemeg.churn_per_step", "edges/step"},
		{"mobility.step_ns_per_step", "ns"},
		{"mobility.step_ns_per_moved", "ns"},
		{"mobility.deltas_ns_per_step", "ns"},
		{"mobility.churn_per_step", "edges/step"},
		{"mobility.moved_per_step", "nodes/step"},
		{"dyngraph.apply_ns_per_step", "ns"},
		{"dyngraph.apply_ns_per_churn", "ns"},
		{"dyngraph.seed_ms", "ms"},
		{"dyngraph.adjacency_mb", "MiB"},
		{"dyngraph.apply_allocs", "count"},
		{"flood.engine_ns_per_step", "ns"},
		{"flood.engine_ns_per_step.spread", "ns"},
		{"flood.engine_ns_per_step.saturate", "ns"},
		{"flood.sweep_ns_per_step", "ns"},
		{"flood.allocs_per_trial", "count"},
		{"flood.scratch_mb", "MiB"},
		{"flood.messages_per_step", "msgs/step"},
		{"flood.useful_frac", "frac"},
	}
	for _, p := range protocolLabels {
		defs = append(defs, metricDef{"protocol." + p + ".cell_ms", "ms"}, metricDef{"protocol." + p + ".useful_frac", "frac"})
	}
	for _, m := range modelLabels {
		defs = append(defs, metricDef{"model." + m + ".cell_ms", "ms"})
	}
	return append(defs,
		metricDef{"study.checkpoint_ms.p50", "ms"},
		metricDef{"study.overhead_frac", "frac"},
		metricDef{"campaign.lease_ms.p50", "ms"},
		metricDef{"campaign.lease_ms.p99", "ms"},
		metricDef{"campaign.complete_ms.p50", "ms"},
		metricDef{"campaign.complete_ms.p99", "ms"},
		metricDef{"campaign.server_ms.p50", "ms"},
		metricDef{"campaign.rpcs_per_cell", "count"},
		metricDef{"campaign.retries", "count"},
		metricDef{"campaign.overhead_frac", "frac"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"meg-1m":        meg1m.run,
	"waypoint-64k":  waypoint64k.run,
	"protocol-grid": protocolGrid,
	"farm-tiny":     farmTiny,
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, which keeps one slow first-touch from moving the metric.
const setupRepeats = 3

// reconcileTol is how far a traced trial's or pass's spans may fall
// short of its wall time, as a share of that wall time. Measured gaps are
// under 0.1%; 3% is below the run-to-run spread of every end-to-end
// metric, so a gap that large is a hole in the tracing, not noise.
const reconcileTol = 0.03

// run is the state one benchmark invocation accumulates.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	dir      string    // scratch directory for checkpoints, farm state and spans
	out      io.Writer // human-readable lines: per-trial steps, digest, failures

	rec *recorder // nil unless traced

	attempted, failed int64
	metrics           map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// attempt counts n operations (trials, cells, RPCs).
func (r *run) attempt(n int64) { r.attempted += n }

// fail counts one failed operation or check and says why.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(r.out, "FAIL: "+format+"\n", args...)
}

// check counts a correctness check as failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// setup runs fn setupRepeats times, records the median wall time as
// setup_s and returns the last result. Each earlier result's cleanup runs
// before the next repeat.
func setup[T any](r *run, fn func(i int) (T, func(), error)) (T, error) {
	var (
		v       T
		cleanup func()
		err     error
		walls   []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if cleanup != nil {
			cleanup()
		}
		start := time.Now()
		v, cleanup, err = fn(i)
		if err != nil {
			return v, err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	r.set("setup_s", median(walls))
	fmt.Fprintf(r.out, "setup_s: median of %d set-ups %v\n", setupRepeats, walls)
	return v, nil
}

// cellTimes holds the wall times, in ms, of every cell a run measured,
// indexed by the cell's position in its pass.
type cellTimes [][]float64

func (c *cellTimes) add(cell int, v float64) {
	for len(*c) <= cell {
		*c = append(*c, nil)
	}
	(*c)[cell] = append((*c)[cell], v)
}

// addPass adds one pass's cell times, in pass order.
func (c *cellTimes) addPass(times []float64) {
	for i, v := range times {
		c.add(i, v)
	}
}

// means returns each cell's mean time across the run's passes.
// Summarizing repeats of a cell first keeps the percentiles from jumping
// between cells of different cost, or onto a burst of slow requests,
// when the machine's speed wavers.
func (c cellTimes) means() []float64 {
	m := make([]float64, len(c))
	for i, xs := range c {
		m[i] = mean(xs)
	}
	return m
}

// p50 returns the median over cells of each cell's mean time.
func (c cellTimes) p50() float64 { return median(c.means()) }

// setCells records cell_ms.p50 and cell_ms.p99 over the cells' mean
// times.
func (r *run) setCells(c cellTimes) {
	samples := 0
	for _, xs := range c {
		samples += len(xs)
	}
	p99, p := tail(c.means(), 99)
	r.set("cell_ms.p50", c.p50())
	r.set("cell_ms.p99", p99)
	fmt.Fprintf(r.out, "cell_ms: %d cells, %d samples, p50=%.4f, cell_ms.p99 reports p%.2f=%.4f\n", len(c), samples, c.p50(), p, p99)
}

// digest hashes a run's trajectory outputs: every line printed to it.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d digest) sum() string { return fmt.Sprintf("sha256:%x", d.h.Sum(nil)) }

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	workload := flag.String("workload", "", "workload name: meg-1m, waypoint-64k, protocol-grid or farm-tiny")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "how long to measure")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	dir := flag.String("dir", filepath.Join(".bench_build", "floodbench"), "directory for checkpoints, farm state and spans")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "floodbench: need --workload (one of meg-1m, waypoint-64k, protocol-grid, farm-tiny), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		out:      os.Stdout,
		metrics:  map[string]float64{},
	}
	if r.traced {
		r.rec = newRecorder()
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "floodbench: %v\n", err)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "floodbench: %v\n", err)
		os.Exit(2)
	}
	r.dir = work
	err = fn(r)
	os.RemoveAll(work)
	if err != nil {
		r.fail("%s: %v", r.workload, err)
	}
	code := r.finish(*dir)
	os.Exit(code)
}

// finish prints the result line and returns the exit code: non-zero when
// any operation or check failed.
func (r *run) finish(dir string) int {
	defs := endToEnd
	if r.traced {
		defs = perLayer
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := writeSpans(path, r.rec.snapshot()); err != nil {
			r.fail("%v", err)
		} else {
			fmt.Fprintf(r.out, "spans: %s\n", path)
		}
	} else {
		r.set("max_rss_mb", maxRSSMiB())
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !r.traced && r.failed == 0 {
			r.fail("benchmark bug: %s did not set %s", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("benchmark bug: %s is %v", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0
	fmt.Fprintf(r.out, "failed_frac: %d/%d = %g\n", out.Failed, out.Attempted, float64(out.Failed)/float64(out.Attempted))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "floodbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(r.out, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
