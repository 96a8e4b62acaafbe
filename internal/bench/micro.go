package bench

// The microbenchmark suite behind `benchtab -json`: the spreading-core hot
// loops measured via testing.Benchmark and emitted as a machine-readable
// record, so every PR can append a BENCH_<date>.json point to the perf
// trajectory without scraping `go test -bench` text output.
//
// Each micro measures one production-shaped trial: build the model from
// its registered spec, build the protocol from the registry, run to
// completion with a warm flood.Scratch shared across iterations — exactly
// how internal/study workers execute trials, so allocs/op here is the
// per-trial allocation cost a sweep pays (model construction included; the
// engines themselves are pinned to zero warm allocations by the
// regression tests in internal/flood).

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/dynwalk"
	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// MicroResult is one benchmark row of the perf record.
type MicroResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// ModeIndependent marks rows whose workload is identical under -quick
	// and full runs — the rows a quick CI record may be gated against a
	// committed full-suite baseline on (see GatedRegressions). Additive
	// field: records written before it parse with it false, which gates
	// nothing.
	ModeIndependent bool `json:"mode_independent,omitempty"`
	// ResidentBytes reports the workload's resident engine + model
	// footprint per Bytes() accounting, for rows that measure memory
	// (the million-node rows); zero when the row does not report it.
	ResidentBytes int64 `json:"resident_bytes,omitempty"`
}

// MicroRecord is the whole BENCH_<date>.json document.
type MicroRecord struct {
	// Schema names the document format; bump on breaking changes.
	Schema string `json:"schema"`
	// Date is the RFC 3339 timestamp of the run.
	Date string `json:"date"`
	// Go, GOOS and GOARCH identify the toolchain and platform.
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// Seed and Quick echo the benchtab configuration.
	Seed  uint64 `json:"seed"`
	Quick bool   `json:"quick"`
	// Benchmarks holds one row per micro, in suite order.
	Benchmarks []MicroResult `json:"benchmarks"`
}

// micro is one named benchmark of the suite.
type micro struct {
	name string
	run  func(b *testing.B)
	// modeIndependent marks the workload as identical under -quick and
	// full runs, making the row eligible for the cross-mode CI gate.
	modeIndependent bool
	// resident, when non-nil, reports the workload's resident footprint
	// (Bytes() accounting) after the benchmark ran.
	resident func() int64
}

// floodMicro measures one flood trial per iteration: model built fresh
// (trials never reuse model state), scratch warm across iterations. A
// non-nil wrap replaces the model's view before the run (the Deltifier
// rows).
func floodMicro(cfg Config, spec model.Spec, wrap func(dyngraph.Dynamic) dyngraph.Dynamic) func(b *testing.B) {
	return func(b *testing.B) {
		opts := flood.Opts{MaxSteps: 1 << 17, Scratch: flood.NewScratch()}
		for i := 0; i < b.N; i++ {
			d := model.MustBuild(spec, cfg.Seed)
			if wrap != nil {
				d = wrap(d)
			}
			if res := flood.Run(d, 0, opts); !res.Completed {
				b.Fatal("flood did not complete")
			}
		}
	}
}

// walkMicro measures a fixed-length random walk ON the model — the
// workload whose per-step cost used to be dominated by the O(m) adjacency
// rebuild that the walker's single neighbor read forced every step, and
// that the live incremental adjacency reduces to O(churn).
func walkMicro(cfg Config, spec model.Spec, steps int) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := model.MustBuild(spec, cfg.Seed)
			w := dynwalk.NewWalker(d, 0, rng.New(cfg.Seed+3))
			for s := 0; s < steps; s++ {
				w.Step()
			}
		}
	}
}

// protoMicro measures one registry-built protocol trial per iteration.
func protoMicro(cfg Config, mspec model.Spec, ptext string) func(b *testing.B) {
	return func(b *testing.B) {
		pspec, err := protocol.Parse(ptext)
		if err != nil {
			b.Fatal(err)
		}
		opts := flood.Opts{MaxSteps: 1 << 17, Scratch: flood.NewScratch()}
		for i := 0; i < b.N; i++ {
			d := model.MustBuild(mspec, cfg.Seed)
			p := protocol.MustBuild(pspec, cfg.Seed+1)
			if res := p.Run(d, 0, opts); !res.Completed {
				b.Fatalf("%s did not complete", ptext)
			}
		}
	}
}

// micros assembles the suite. Sizes mirror the root bench_test.go hot-loop
// workloads (sparse edge-MEG ≈ stationary degree 2, waypoint, and a denser
// edge-MEG ≈ degree 20 for the per-node protocols), reduced under -quick.
//
// The sparse-4k and sparse-64k rows run the paper's sparse stationary
// regime with long-lived edges (p = c/n, q = 0.01, expected degree ≈ 2 —
// churn ≈ 2% of edges per step) on the fastchurn simulator, so the whole
// step is O(churn) + frontier. The sparse-4k delta-scan/deltifier pair
// pits the model's native churn stream against the Deltifier entry adapter
// (full snapshot + sort + diff every step) on the same model, seed and
// trajectory — the price a model without a native stream pays.
func micros(cfg Config) []micro {
	sparse := model.New("edgemeg").WithInt("n", 2048).
		WithFloat("p", 0.0001).WithFloat("q", 0.0999)
	sparse4k := model.New("edgemeg").WithInt("n", 4096).
		WithFloat("p", 0.0000049).WithFloat("q", 0.01).WithBool("fastchurn", true)
	sparse64k := model.New("edgemeg").WithInt("n", 65536).
		WithFloat("p", 0.0000003).WithFloat("q", 0.01).WithBool("fastchurn", true)
	walkSpec := model.New("edgemeg").WithInt("n", 2048).
		WithFloat("p", 0.0000098).WithFloat("q", 0.01).WithBool("fastchurn", true)
	waypoint := model.New("waypoint").WithInt("n", 512).
		WithFloat("L", 45).WithFloat("r", 1).WithFloat("vmin", 1)
	dense := model.New("edgemeg").WithInt("n", 512).
		WithFloat("p", 0.004).WithFloat("q", 0.096)
	walkSteps := 1 << 13
	if cfg.Quick {
		sparse = model.New("edgemeg").WithInt("n", 512).
			WithFloat("p", 0.0004).WithFloat("q", 0.0996)
		sparse4k = model.New("edgemeg").WithInt("n", 1024).
			WithFloat("p", 0.0000196).WithFloat("q", 0.01).WithBool("fastchurn", true)
		sparse64k = model.New("edgemeg").WithInt("n", 8192).
			WithFloat("p", 0.0000024).WithFloat("q", 0.01).WithBool("fastchurn", true)
		waypoint = model.New("waypoint").WithInt("n", 128).
			WithFloat("L", 18).WithFloat("r", 1.5).WithFloat("vmin", 1)
		dense = model.New("edgemeg").WithInt("n", 128).
			WithFloat("p", 0.016).WithFloat("q", 0.084)
		walkSteps = 1 << 11
	}
	// forceDeltify routes the model through the generic snapshot-diff
	// adapter (full AppendEdges + sort + diff every step) feeding the same
	// delta engine the native AppendDeltas feeds directly. The waypoint-4k
	// delta/deltifier pair is the headline before/after of the O(churn)
	// mobility work.
	forceDeltify := func(d dyngraph.Dynamic) dyngraph.Dynamic { return dyngraph.NewDeltifier(d) }
	// Not reduced under -quick: the pair is the cross-mode CI gate's
	// mobility coverage, so both modes must run the identical workload.
	// Pause-heavy (fast trips, long rests): a modest fraction of the nodes
	// move on any step, so the native path's O(moved × density) churn scan
	// is far below the adapter's unconditional O(m log m) snapshot diff —
	// the regime the incremental work targets (sensor fields, parked
	// vehicles, duty-cycled radios all rest most of the time).
	waypoint4k := model.New("waypoint").WithInt("n", 4096).
		WithFloat("L", 64).WithFloat("r", 1).WithFloat("vmin", 8).
		WithFloat("vmax", 8).WithInt("pause", 32)
	megamicros := millionNodeMicros(cfg)
	rows := []micro{
		{name: "flood/edgemeg-sparse/delta-scan", run: floodMicro(cfg, sparse, nil)},
		{name: "flood/edgemeg-sparse-4k/delta-scan", run: floodMicro(cfg, sparse4k, nil)},
		{name: "flood/edgemeg-sparse-4k/deltifier", run: floodMicro(cfg, sparse4k, forceDeltify)},
		{name: "flood/edgemeg-sparse-64k/delta-scan", run: floodMicro(cfg, sparse64k, nil)},
		{name: "flood/waypoint/delta-scan", run: floodMicro(cfg, waypoint, nil)},
		{name: "flood/waypoint-4k/delta", modeIndependent: true, run: floodMicro(cfg, waypoint4k, nil)},
		{name: "flood/waypoint-4k/deltifier", modeIndependent: true, run: floodMicro(cfg, waypoint4k, forceDeltify)},
		{name: "flood/static-torus/engine-only", modeIndependent: true, run: func(b *testing.B) {
			// Pure engine cost: the static model is stateless across runs,
			// so nothing but the spreading core is measured (since the
			// delta refactor, the incremental engine: per-run adjacency
			// seeding + active-set sweeps over a churn-free graph).
			d := dyngraph.NewStatic(graph.Torus(32, 32))
			opts := flood.Opts{MaxSteps: 1 << 10, Scratch: flood.NewScratch()}
			for i := 0; i < b.N; i++ {
				if res := flood.Run(d, 0, opts); !res.Completed {
					b.Fatal("flood did not complete")
				}
			}
		}},
		{name: "walk/edgemeg-sparse/8k-steps", run: walkMicro(cfg, walkSpec, walkSteps)},
		{name: "push/edgemeg-dense/k=2", run: protoMicro(cfg, dense, "push:k=2")},
		{name: "pull/edgemeg-dense", run: protoMicro(cfg, dense, "pull")},
		{name: "pushpull/edgemeg-dense/k=1", run: protoMicro(cfg, dense, "pushpull:k=1")},
		{name: "parsimonious/edgemeg-dense/active=32", run: protoMicro(cfg, dense, "parsimonious:active=32")},
		{name: "async/edgemeg-dense/rate=1", run: protoMicro(cfg, dense, "async:rate=1")},
	}
	rows = append(rows, mobilityMicros(cfg)...)
	return append(rows, megamicros...)
}

// edgeMEG1M is the million-node workload of the n = 10^6 rows: the sparse
// two-state MEG at stationary average degree ≈ 2 with long-lived edges
// (q = 0.01, so churn ≈ 1% of edges per step) on the stream=v2 fast
// samplers — α = p/(p+q) = 2·10⁻⁶ over ≈ 5·10¹¹ pairs gives ≈ 10⁶ alive
// edges and ≈ 2·10⁴ churn events per step.
var edgeMEG1M = model.New("edgemeg").WithInt("n", 1_000_000).
	WithFloat("p", 2e-8).WithFloat("q", 0.01).With("stream", "v2")

// bytesReporter is the Bytes() accounting the engines and models expose.
type bytesReporter interface{ Bytes() int64 }

// millionNodeMicros returns the n = 10^6 rows — the tentpole evidence that
// the sparse engine steps in O(churn) and floods in O(churn + frontier)
// at a million nodes inside a small resident footprint. Both rows run the
// SAME workload under -quick and full (they are already step-scoped, not
// completion-scoped), so they are mode-independent and the CI cross-mode
// gate covers them.
func millionNodeMicros(cfg Config) []micro {
	var stepResident, floodResident int64
	return []micro{
		{
			name:            "step/edgemeg-1m/stream-v2",
			modeIndependent: true,
			resident:        func() int64 { return stepResident },
			run: func(b *testing.B) {
				// One model for the whole benchmark: the row measures the
				// warm per-step cost (O(churn) draws + index maintenance),
				// not the one-time stationary construction.
				d := model.MustBuild(edgeMEG1M, cfg.Seed)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Step()
				}
				b.StopTimer()
				stepResident = d.(bytesReporter).Bytes()
			},
		},
		{
			name:            "flood/edgemeg-1m/delta-128steps",
			modeIndependent: true,
			resident:        func() int64 { return floodResident },
			run: func(b *testing.B) {
				// A fixed 128-step flooding window per op over the evolving
				// graph (the model persists across iterations; each op seeds
				// the adjacency from the current snapshot and floods from
				// scratch). Degree ≈ 2 leaves stragglers, so the window
				// never completes — the row measures per-step engine work,
				// not completion time.
				d := model.MustBuild(edgeMEG1M, cfg.Seed+1)
				opts := flood.Opts{MaxSteps: 128, Scratch: flood.NewScratch()}
				// Two untimed windows grow the scratch and the adjacency
				// arena to their high-water marks so the timed ops report
				// the warm zero-alloc regime.
				flood.Run(d, 0, opts)
				flood.Run(d, 0, opts)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res := flood.Run(d, 0, opts); res.Informed < 2 {
						b.Fatal("flood spread nowhere")
					}
				}
				b.StopTimer()
				floodResident = d.(bytesReporter).Bytes() + opts.Scratch.Bytes()
			},
		},
	}
}

// waypoint64K is the large geometric workload: 65536 nodes in a 256×256
// square at radius 1 (average degree ≈ π), fast trips (speed 8) separated
// by long rests (pause 32), so roughly a quarter of the nodes move on any
// step — the partial-churn regime the incremental cell lists target, at a
// scale where the per-step full rebuild + pair rescan used to dominate.
var waypoint64K = model.New("waypoint").WithInt("n", 65536).
	WithFloat("L", 256).WithFloat("r", 1).WithFloat("vmin", 8).
	WithFloat("vmax", 8).WithInt("pause", 32)

// mobilityMicros returns the 64k geometric rows. Like the million-node
// edge-MEG rows they are step-scoped rather than completion-scoped, run the
// identical workload under -quick and full, and persist the model across
// iterations to measure the warm regime.
func mobilityMicros(cfg Config) []micro {
	return []micro{
		{
			name:            "step/waypoint-64k",
			modeIndependent: true,
			run: func(b *testing.B) {
				// Warm per-step cost of the model alone: O(moved) cell-list
				// maintenance plus the two-pass churn detection, no engine.
				d := model.MustBuild(waypoint64K, cfg.Seed)
				for i := 0; i < 256; i++ {
					d.Step() // untimed: reach the steady mover mix and buffer high-waters
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Step()
				}
			},
		},
		{
			name:            "flood/waypoint-64k/delta",
			modeIndependent: true,
			run: func(b *testing.B) {
				// One flood from node 0 per op over the evolving positions,
				// run to completion: floods of this model complete in
				// 55–99 steps, so the MaxSteps: 128 guard rarely binds and
				// the row times whole floods, per-step engine + model work
				// across every frontier size.
				d := model.MustBuild(waypoint64K, cfg.Seed+1)
				opts := flood.Opts{MaxSteps: 128, Scratch: flood.NewScratch()}
				flood.Run(d, 0, opts)
				flood.Run(d, 0, opts)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res := flood.Run(d, 0, opts); res.Informed < 2 {
						b.Fatal("flood spread nowhere")
					}
				}
			},
		},
	}
}

// RunMicros executes the microbenchmark suite and returns one row per
// benchmark. Progress is reported to w (one line per micro) because a full
// suite takes tens of seconds.
func RunMicros(cfg Config, w io.Writer) []MicroResult {
	var out []MicroResult
	for _, m := range micros(cfg) {
		r := testing.Benchmark(m.run)
		row := MicroResult{
			Name:            m.name,
			Iterations:      r.N,
			NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:     r.AllocsPerOp(),
			BytesPerOp:      r.AllocedBytesPerOp(),
			ModeIndependent: m.modeIndependent,
		}
		if m.resident != nil {
			row.ResidentBytes = m.resident()
		}
		fmt.Fprintf(w, "%-40s %12.0f ns/op %8d B/op %6d allocs/op\n",
			row.Name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
		out = append(out, row)
	}
	return out
}

// WriteMicroJSON runs the suite and writes the BENCH_<date>.json document
// to w, with progress lines on progress.
func WriteMicroJSON(cfg Config, now time.Time, w, progress io.Writer) error {
	rec := MicroRecord{
		Schema:     "repro-bench/v1",
		Date:       now.Format(time.RFC3339),
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Seed:       cfg.Seed,
		Quick:      cfg.Quick,
		Benchmarks: RunMicros(cfg, progress),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec)
}
