package repro_test

// Two benchmark families:
//
//   - BenchmarkExpE*: one benchmark per experiment of EXPERIMENTS.md. Each
//     executes the experiment's quick configuration end to end (model
//     construction, trials, table rendering to io.Discard), so
//     `go test -bench=Exp` regenerates every result series and reports the
//     wall-clock cost of doing so. Run `go run ./cmd/benchtab` for the
//     human-readable full-scale tables.
//
//   - BenchmarkFlood*: the native-vs-callback hot-loop comparison. The
//     flooding engine consumes a model's native delta stream; these
//     benchmarks run the same flood over the same model with its native
//     views enabled and hidden behind ForEachNeighbor, which the engine
//     enters through the Deltifier (`go test -bench=Flood`), and
//     TestFloodBatchMatchesCallback pins down that both return identical
//     Results on fixed seeds.

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/protocol"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{Quick: true, Seed: 1}
	for i := 0; i < b.N; i++ {
		if err := bench.RunOne(id, cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpE1(b *testing.B)  { runExperiment(b, "E1") }  // Theorem 1: flooding vs n on a stationary MEG
func BenchmarkExpE2(b *testing.B)  { runExperiment(b, "E2") }  // edge-MEG p sweep vs the bound of [10]
func BenchmarkExpE3(b *testing.B)  { runExperiment(b, "E3") }  // edge-MEG flooding vs n at fixed (p, q)
func BenchmarkExpE4(b *testing.B)  { runExperiment(b, "E4") }  // random waypoint sparse-regime scaling
func BenchmarkExpE5(b *testing.B)  { runExperiment(b, "E5") }  // waypoint positional density (Corollary 4)
func BenchmarkExpE6(b *testing.B)  { runExperiment(b, "E6") }  // mixing-time curves of the paper's chains
func BenchmarkExpE7(b *testing.B)  { runExperiment(b, "E7") }  // spreading vs saturation phases
func BenchmarkExpE8(b *testing.B)  { runExperiment(b, "E8") }  // density and β-independence conditions
func BenchmarkExpE9(b *testing.B)  { runExperiment(b, "E9") }  // random paths: flooding vs diameter
func BenchmarkExpE10(b *testing.B) { runExperiment(b, "E10") } // δ-regularity ablation
func BenchmarkExpE11(b *testing.B) { runExperiment(b, "E11") } // k-augmented tori vs meeting-time bound
func BenchmarkExpE12(b *testing.B) { runExperiment(b, "E12") } // randomized push gossip (Section 5)
func BenchmarkExpE13(b *testing.B) { runExperiment(b, "E13") } // Theorem 3 η-dependence
func BenchmarkExpE14(b *testing.B) { runExperiment(b, "E14") } // parsimonious flooding [4]
func BenchmarkExpE15(b *testing.B) { runExperiment(b, "E15") } // random walk on a MEG: cover time [2]
func BenchmarkExpE16(b *testing.B) { runExperiment(b, "E16") } // bursty four-state edge-MEG [5]
func BenchmarkExpE17(b *testing.B) { runExperiment(b, "E17") } // load balancing over MEGs [16, 28]
func BenchmarkExpE18(b *testing.B) { runExperiment(b, "E18") } // flooding vs k-push vs pull (§5)

// callbackOnly hides every optional view of a model, so the flooding
// engine enters it through the Deltifier, which reads snapshots via
// ForEachNeighbor.
type callbackOnly struct{ d dyngraph.Dynamic }

func (c callbackOnly) N() int                                { return c.d.N() }
func (c callbackOnly) Step()                                 { c.d.Step() }
func (c callbackOnly) ForEachNeighbor(i int, fn func(j int)) { c.d.ForEachNeighbor(i, fn) }

// floodBenchSpecs are the hot-loop comparison workloads: a sparse
// stationary edge-MEG (the paper's core regime) and a geometric waypoint
// model, both sized so a flood takes many snapshot scans.
var floodBenchSpecs = map[string]model.Spec{
	"EdgeMEG": model.New("edgemeg").WithInt("n", 2048).
		WithFloat("p", 0.0001).WithFloat("q", 0.0999), // expected degree ≈ 2, Tmix ≈ 10
	"Waypoint": model.New("waypoint").WithInt("n", 512).
		WithFloat("L", 45).WithFloat("r", 1).WithFloat("vmin", 1),
}

func benchFlood(b *testing.B, spec model.Spec, batch bool) {
	b.Helper()
	b.ReportAllocs()
	// One warm scratch across iterations, as a study worker would hold:
	// remaining allocs/op is model construction, not the engine.
	opts := flood.Opts{MaxSteps: 1 << 17, Scratch: flood.NewScratch()}
	for i := 0; i < b.N; i++ {
		d := model.MustBuild(spec, 1)
		if !batch {
			d = callbackOnly{d}
		}
		res := flood.Run(d, 0, opts)
		if !res.Completed {
			b.Fatal("flood did not complete")
		}
	}
}

func BenchmarkFloodEdgeMEGBatch(b *testing.B)    { benchFlood(b, floodBenchSpecs["EdgeMEG"], true) }
func BenchmarkFloodEdgeMEGCallback(b *testing.B) { benchFlood(b, floodBenchSpecs["EdgeMEG"], false) }
func BenchmarkFloodWaypointBatch(b *testing.B)   { benchFlood(b, floodBenchSpecs["Waypoint"], true) }
func BenchmarkFloodWaypointCallback(b *testing.B) {
	benchFlood(b, floodBenchSpecs["Waypoint"], false)
}

// BenchmarkPull / BenchmarkParsimonious / BenchmarkPushPull: the
// protocol-engine hot loops (per-node neighbor batches via
// dyngraph.NeighborLister) over a moderately dense stationary edge-MEG,
// exercised through spec-built protocols so the registry path is what is
// measured, exactly as production callers run it.
var protoBenchModel = model.New("edgemeg").WithInt("n", 512).
	WithFloat("p", 0.004).WithFloat("q", 0.096) // stationary degree ≈ 20

func benchProtocol(b *testing.B, ptext string) {
	b.Helper()
	b.ReportAllocs()
	pspec, err := protocol.Parse(ptext)
	if err != nil {
		b.Fatal(err)
	}
	opts := flood.Opts{MaxSteps: 1 << 17, Scratch: flood.NewScratch()}
	for i := 0; i < b.N; i++ {
		d := model.MustBuild(protoBenchModel, 1)
		p := protocol.MustBuild(pspec, 2)
		if res := p.Run(d, 0, opts); !res.Completed {
			b.Fatalf("%s did not complete", ptext)
		}
	}
}

func BenchmarkPull(b *testing.B)         { benchProtocol(b, "pull") }
func BenchmarkParsimonious(b *testing.B) { benchProtocol(b, "parsimonious:active=32") }
func BenchmarkPushPull(b *testing.B)     { benchProtocol(b, "pushpull:k=1") }

// TestFloodBatchMatchesCallback verifies that flooding over the model's
// native views and over its callback view alone (same spec, same seed)
// returns identical Results, timeline included.
func TestFloodBatchMatchesCallback(t *testing.T) {
	specs := []model.Spec{
		model.New("edgemeg").WithInt("n", 256).WithFloat("p", 0.002).WithFloat("q", 0.098),
		model.New("edgemeg").WithInt("n", 96).WithFloat("p", 0.01).WithFloat("q", 0.09).WithBool("dense", true),
		model.New("edgemeg4").WithInt("n", 96),
		model.New("waypoint").WithInt("n", 128).WithFloat("L", 18).WithFloat("r", 1.5),
		model.New("direction").WithInt("n", 128).WithFloat("L", 18).WithFloat("r", 1.5),
		model.New("walk").WithInt("n", 48).WithInt("m", 8),
		model.New("paths").WithInt("n", 24).WithInt("m", 6),
		model.New("static").With("topology", "torus").WithInt("m", 8),
	}
	opts := flood.Opts{MaxSteps: 1 << 16, KeepTimeline: true}
	for _, spec := range specs {
		for _, seed := range []uint64{1, 42} {
			got := flood.Run(model.MustBuild(spec, seed), 0, opts)
			want := flood.Run(callbackOnly{model.MustBuild(spec, seed)}, 0, opts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v seed %d: batch result %+v != callback result %+v", spec, seed, got, want)
			}
		}
	}
}
