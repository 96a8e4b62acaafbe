package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/spec"
)

// optional lists every optional dyngraph interface flood.Run or the
// other engines dispatch on.
var optional = map[string]func(dyngraph.Dynamic) bool{
	"Batcher":        func(d dyngraph.Dynamic) bool { _, ok := d.(dyngraph.Batcher); return ok },
	"ArcBatcher":     func(d dyngraph.Dynamic) bool { _, ok := d.(dyngraph.ArcBatcher); return ok },
	"NeighborLister": func(d dyngraph.Dynamic) bool { _, ok := d.(dyngraph.NeighborLister); return ok },
	"DeltaBatcher":   func(d dyngraph.Dynamic) bool { _, ok := d.(dyngraph.DeltaBatcher); return ok },
	"MoveReporter":   func(d dyngraph.Dynamic) bool { _, ok := d.(dyngraph.MoveReporter); return ok },
}

func build(t *testing.T, text string, seed uint64) dyngraph.Dynamic {
	t.Helper()
	s, err := spec.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	d, err := model.Build(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWrapMirrorsInterfaces pins that the tracing wrapper offers exactly
// the optional interfaces of every model the benchmark wraps, so
// flood.Run dispatches the traced trial to the same engine.
func TestWrapMirrorsInterfaces(t *testing.T) {
	for _, w := range []trialWorkload{meg1m, waypoint64k} {
		d := build(t, w.spec, 1)
		g, _, err := wrap(d, newRecorder(), w.layer, -1, 0, &dyngraph.Adjacency{})
		if err != nil {
			t.Fatalf("%s: %v", w.spec, err)
		}
		for name, has := range optional {
			if has(g) != has(d) {
				t.Errorf("%s: wrapper implements %s = %v, model = %v", w.spec, name, has(g), has(d))
			}
		}
		if optional["ArcBatcher"](g) {
			t.Errorf("%s: wrapper implements ArcBatcher", w.spec)
		}
	}
}

func TestWrapRejectsArcBatcher(t *testing.T) {
	d := build(t, "edgemeg:n=64", 1)
	sub := dyngraph.NewSubsample(d, 1, rng.New(1))
	if _, _, err := wrap(sub, newRecorder(), "edgemeg", -1, 0, &dyngraph.Adjacency{}); err != errUntraceable {
		t.Fatalf("wrap(Subsample) = %v, want errUntraceable", err)
	}
}

// TestTracedRunMatches floods small instances of both wrapped model
// families with and without the wrapper: same result, a shadow adjacency
// equal to the final snapshot, and per-step spans that add up.
func TestTracedRunMatches(t *testing.T) {
	for _, c := range []struct{ spec, layer string }{
		{"edgemeg:n=4096,p=0.0001,q=0.1,stream=v2", "edgemeg"},
		{"waypoint:n=1024,L=32,r=1,vmin=2,pause=2", "mobility"},
	} {
		sc := flood.NewScratch()
		plain := flood.Run(build(t, c.spec, 7), 0, flood.Opts{Scratch: sc})
		rec := newRecorder()
		root := rec.begin("trial", -1, 0, -1)
		g, tg, err := wrap(build(t, c.spec, 7), rec, c.layer, root, 0, &dyngraph.Adjacency{})
		if err != nil {
			t.Fatal(err)
		}
		res := flood.Run(g, 0, flood.Opts{Scratch: sc})
		tg.closeGap()
		rec.end(root)
		if !reflect.DeepEqual(res, plain) {
			t.Errorf("%s: traced %+v, untraced %+v", c.spec, res, plain)
		}
		if !tg.shadowMatches() {
			t.Errorf("%s: shadow adjacency differs from the final snapshot", c.spec)
		}
		tot := totals(rec.snapshot())
		if got, want := tot.count(c.layer+".step"), res.Time-1; got != want {
			t.Errorf("%s: %d step spans, want %d", c.spec, got, want)
		}
		if got := tot.count("dyngraph.apply"); got != res.Time-1 {
			t.Errorf("%s: %d apply spans, want %d", c.spec, got, res.Time-1)
		}
		if tot.self("trial") < 0 {
			t.Errorf("%s: negative trial self time", c.spec)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a: counted once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // clipped to the root's end
		{Name: "a.child", Parent: 1, Start: 15, End: 20},
		{Name: "other", Parent: -1, Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 15, 30, 30, 5, 7}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	tot := totals(spans)
	if tot.self("root") != 50 || tot.count("a") != 1 || tot.self("missing") != 0 {
		t.Fatalf("totals wrong: root=%v a=%d", tot.self("root"), tot.count("a"))
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		v, p    float64
		comment string
	}{
		{1000, 990, 99, "enough samples: the true p99"},
		{216, 206, 100 * 206.0 / 216, "p99 would leave 3 beyond: falls back to rank n-10"},
		{20, 10, 50, "the median is the only percentile with ten beyond"},
		{11, 6, 50, "not even the median has ten beyond: the median"},
		{4, 2.5, 50, "a handful of trials: the median"},
	} {
		v, p := tail(seq(c.n), 99)
		if v != c.v || p != c.p {
			t.Errorf("n=%d (%s): tail = %v at p%v, want %v at p%v", c.n, c.comment, v, p, c.v, c.p)
		}
		if c.n >= 20 && float64(c.n)-v < 10 {
			t.Errorf("n=%d: only %v samples beyond", c.n, float64(c.n)-v)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// flaky fails the first request it sees with a 503, then passes through.
type flaky struct {
	base   http.RoundTripper
	failed bool
}

func (f *flaky) RoundTrip(req *http.Request) (*http.Response, error) {
	if !f.failed {
		f.failed = true
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Body: io.NopCloser(strings.NewReader("{}")), Request: req}, nil
	}
	return f.base.RoundTrip(req)
}

// TestFailedFracCountsRetriesAndChecks makes one RPC fail and one check
// fail, and expects both in the printed failure count, correct = false
// and a non-zero exit code.
func TestFailedFracCountsRetriesAndChecks(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		io.WriteString(w, `{"status":"drained"}`)
	}))
	defer srv.Close()
	meter := &rpcMeter{base: &flaky{base: http.DefaultTransport}, pass: -1, cell: -1}
	client := &http.Client{Transport: meter}
	for i := 0; i < 2; i++ {
		resp, err := client.Post(srv.URL+"/lease", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if meter.rpcs != 2 || meter.failed != 1 {
		t.Fatalf("meter counted %d RPCs, %d failed; want 2, 1", meter.rpcs, meter.failed)
	}

	var out bytes.Buffer
	r := &run{workload: "farm-tiny", out: &out, metrics: map[string]float64{}}
	r.attempt(meter.rpcs)
	r.failed += meter.failed
	r.check(true, "passes")
	r.check(false, "made to fail")
	for _, d := range endToEnd {
		r.set(d.name, 1)
	}
	if code := r.finish(t.TempDir()); code == 0 {
		t.Fatal("finish returned 0 after failures")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 2 {
		t.Fatalf("result %+v, want correct=false attempted=2 failed=2", res)
	}
	if !strings.Contains(out.String(), "FAIL: made to fail") {
		t.Fatalf("failure not reported:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// and workloads this program prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(json), len(defs))
			return
		}
		for i, d := range defs {
			if json[i].Name != d.name || json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, json[i].Name, json[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
