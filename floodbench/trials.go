package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/rng"
	"repro/internal/spec"
)

// trialWorkload floods one large model from node 0 to completion, trial
// after trial, on one goroutine with one warm flood.Scratch shared by
// all trials: how a study worker runs trials. Each trial builds a fresh
// model. Trials cycle through pass seeds, so every trial after the first
// pass repeats an earlier input and must repeat its result.
type trialWorkload struct {
	spec      string
	layer     string // the model's layer, which prefixes its spans
	pass      int    // distinct trial seeds per run
	warmSteps int    // length of the warm-up flood each set-up runs
}

var (
	meg1m = trialWorkload{
		spec:  "edgemeg:n=1000000,p=2e-8,q=0.01,stream=v2",
		layer: "edgemeg", pass: 4, warmSteps: 4,
	}
	waypoint64k = trialWorkload{
		spec:  "waypoint:n=65536,L=256,r=1,vmin=8,vmax=8,pause=32",
		layer: "mobility", pass: 8, warmSteps: 4,
	}
)

// Stream tags deriving the set-up and per-trial model seeds from the
// workload seed.
const (
	setupStream uint64 = 0x535455 // "STU"
	trialStream uint64 = 0x545249 // "TRI"
)

// phases holds a trial's completion and half times.
type phases struct{ time, half int }

// trialStats accumulates what the traced trials measure.
type trialStats struct {
	shadow                   dyngraph.Adjacency // reused across trials, like the engine's own
	trialTimes               map[int]phases     // traced trial op → its phases, to split engine spans
	trials                   int
	stepCalls                int64
	churn                    int64
	moved                    int64
	msgs                     int64
	useful                   int64
	applyAllocs, floodAllocs uint64
	resident                 float64 // model Bytes() of the last traced trial, MiB
	tracedWall, plainWall    time.Duration
}

func (w trialWorkload) run(r *run) error {
	s, err := spec.Parse(w.spec)
	if err != nil {
		return err
	}
	sc, err := setup(r, func(int) (*flood.Scratch, func(), error) {
		d, err := model.Build(s, rng.Seed(r.seed, setupStream))
		if err != nil {
			return nil, nil, err
		}
		sc := flood.NewScratch()
		flood.Run(d, 0, flood.Opts{MaxSteps: w.warmSteps, Scratch: sc})
		return sc, nil, nil
	})
	if err != nil {
		return err
	}
	ts := &trialStats{trialTimes: map[int]phases{}}
	first := make([]flood.Result, 0, w.pass)
	dg := newDigest()
	var walls []float64
	var steps int64
	var busy time.Duration
	start := time.Now()
	for i := 0; i < w.pass || time.Since(start) < r.seconds; i++ {
		seed := rng.Seed(r.seed, trialStream, uint64(i%w.pass))
		r.attempt(1)
		// Collect the previous trial's model before timing this one, so
		// that every trial starts from the same heap.
		runtime.GC()
		var before, after runtime.MemStats
		t0 := time.Now()
		d, err := model.Build(s, seed)
		if err != nil {
			return err
		}
		if r.traced {
			runtime.ReadMemStats(&before)
		}
		res := flood.Run(d, 0, flood.Opts{Scratch: sc})
		if r.traced {
			runtime.ReadMemStats(&after)
		}
		wall := time.Since(t0)
		walls = append(walls, wall.Seconds())
		busy += wall
		steps += int64(res.Time + 1)
		w.checkResult(r, i, res, d.N())
		if i < w.pass {
			first = append(first, res)
			dg.add("trial %d time=%d half=%d informed=%d messages=%d useless=%d",
				i, res.Time, res.HalfTime, res.Informed, res.Messages, res.Useless)
		} else {
			r.check(reflect.DeepEqual(res, first[i%w.pass]), "trial %d repeats the seed of trial %d but its result differs", i, i%w.pass)
		}
		fmt.Fprintf(r.out, "trial %d: steps=%d (time=%d half=%d) wall_s=%.4f\n", i, res.Time+1, res.Time, res.HalfTime, wall.Seconds())
		if r.traced {
			ts.floodAllocs += after.Mallocs - before.Mallocs
			ts.plainWall += wall
			if err := w.tracedTrial(r, ts, s, seed, i, sc, res); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(r.out, "digest: %s\n", dg.sum())
	if r.traced {
		w.setLayers(r, ts, sc)
		return nil
	}
	r.set("steps_per_s", ratio(float64(steps), busy.Seconds()))
	r.set("trials_per_s", ratio(float64(len(walls)), busy.Seconds()))
	// Each trial is a cell of one trial: the unit a user running one
	// large flood at a time waits for.
	r.set("cells_per_s", ratio(float64(len(walls)), busy.Seconds()))
	var cells cellTimes
	for i, s := range walls {
		cells.add(i%w.pass, s*1000)
	}
	r.set("trial_s.p50", cells.p50()/1000)
	r.setCells(cells)
	fmt.Fprintf(r.out, "trial_s.p50 over %d trials, %d steps\n", len(walls), steps)
	return nil
}

// checkResult applies the per-trial correctness checks.
func (w trialWorkload) checkResult(r *run, i int, res flood.Result, n int) {
	r.check(res.Messages == res.Useless+int64(res.Informed-1),
		"trial %d: messages %d != useless %d + informed-1 %d", i, res.Messages, res.Useless, res.Informed-1)
	r.check(res.Completed && res.Informed == n, "trial %d: informed %d of %d", i, res.Informed, n)
}

// tracedTrial reruns trial i behind the tracing wrapper, checks it
// against the untraced result and reconciles its spans with its wall time.
func (w trialWorkload) tracedTrial(r *run, ts *trialStats, s spec.Spec, seed uint64, i int, sc *flood.Scratch, plain flood.Result) error {
	rec := r.rec
	r.attempt(1)
	runtime.GC()
	root := rec.begin("trial", -1, i, -1)
	id := rec.begin(w.layer+".build", root, i, -1)
	d, err := model.Build(s, seed)
	rec.end(id)
	if err != nil {
		return err
	}
	g, tg, err := wrap(d, rec, w.layer, root, i, &ts.shadow)
	if err != nil {
		return err
	}
	res := flood.Run(g, 0, flood.Opts{Scratch: sc})
	tg.closeGap()
	rec.end(root)
	spans := rec.snapshot()
	wall := spans[root].dur()
	ts.tracedWall += wall
	r.check(reflect.DeepEqual(res, plain), "trial %d: traced result %+v differs from untraced %+v", i, res, plain)
	r.check(tg.shadowMatches(), "trial %d: shadow adjacency differs from the model's final snapshot", i)
	var parts time.Duration
	for _, sp := range spans[root+1:] {
		if sp.Parent == root {
			parts += sp.dur()
		}
	}
	residual := wall - parts
	fmt.Fprintf(r.out, "trial %d traced: step_calls=%d wall_s=%.4f parts_s=%.4f residual=%.5f%%\n",
		i, tg.steps, wall.Seconds(), parts.Seconds(), 100*ratio(float64(residual), float64(wall)))
	r.check(residual >= 0 && float64(residual) <= reconcileTol*float64(wall),
		"trial %d: parts %v do not reconcile with wall %v", i, parts, wall)
	ts.trialTimes[i] = phases{time: res.Time, half: res.HalfTime}
	ts.trials++
	ts.stepCalls += int64(tg.steps)
	ts.churn += tg.churn
	ts.moved += tg.moved
	ts.msgs += res.Messages
	ts.useful += int64(res.Informed - 1)
	ts.applyAllocs += tg.allocs
	if b, ok := d.(interface{ Bytes() int64 }); ok {
		ts.resident = mib(b.Bytes())
	}
	return nil
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// setLayers turns the traced trials' spans and counts into the per-layer
// metrics. Layers the workload bypasses are left unset and print as 0.
func (w trialWorkload) setLayers(r *run, ts *trialStats, sc *flood.Scratch) {
	spans := r.rec.snapshot()
	t := totals(spans)
	calls := float64(ts.stepCalls)
	trials := float64(ts.trials)
	l := w.layer
	stepNS := float64(t.self(l + ".step"))
	r.set(l+".step_ns_per_step", ratio(stepNS, calls))
	r.set(l+".deltas_ns_per_step", ratio(float64(t.self(l+".deltas")), calls))
	r.set(l+".churn_per_step", ratio(float64(ts.churn), calls))
	if l == "edgemeg" {
		r.set("edgemeg.step_ns_per_churn", ratio(stepNS, float64(ts.churn)))
		r.set("edgemeg.build_s", ratio(t.self("edgemeg.build").Seconds(), trials))
		r.set("edgemeg.resident_mb", ts.resident)
	} else {
		r.set("mobility.step_ns_per_moved", ratio(stepNS, float64(ts.moved)))
		r.set("mobility.moved_per_step", ratio(float64(ts.moved), calls))
	}
	applyNS := float64(t.self("dyngraph.apply"))
	r.set("dyngraph.apply_ns_per_step", ratio(applyNS, calls))
	r.set("dyngraph.apply_ns_per_churn", ratio(applyNS, float64(ts.churn)))
	r.set("dyngraph.seed_ms", ratio(ms(t.self("dyngraph.seed")), trials))
	r.set("dyngraph.adjacency_mb", mib(ts.shadow.Bytes()))
	r.set("dyngraph.apply_allocs", ratio(float64(ts.applyAllocs), trials))
	// Engine spans carry the step whose sweep they run: step t is in the
	// spreading phase while t < HalfTime. A trial sweeps steps
	// 0..Time-1, so its phases hold HalfTime and Time-HalfTime steps.
	var spread, saturate time.Duration
	var nSpread, nSaturate int
	self := selfTimes(spans)
	for k, sp := range spans {
		if sp.Name != "flood.engine" {
			continue
		}
		if sp.Step < ts.trialTimes[sp.Op].half {
			spread += self[k]
		} else {
			saturate += self[k]
		}
	}
	for _, tr := range ts.trialTimes {
		nSpread += tr.half
		nSaturate += tr.time - tr.half
	}
	engine := float64(spread + saturate)
	r.set("flood.engine_ns_per_step", ratio(engine, calls))
	r.set("flood.engine_ns_per_step.spread", ratio(float64(spread), float64(nSpread)))
	r.set("flood.engine_ns_per_step.saturate", ratio(float64(saturate), float64(nSaturate)))
	r.set("flood.sweep_ns_per_step", ratio(engine-applyNS, calls))
	r.set("flood.allocs_per_trial", ratio(float64(ts.floodAllocs), trials))
	r.set("flood.scratch_mb", mib(sc.Bytes()))
	r.set("flood.messages_per_step", ratio(float64(ts.msgs), calls))
	r.set("flood.useful_frac", ratio(float64(ts.useful), float64(ts.msgs)))
	r.set("trace.overhead_frac", ratio(float64(ts.tracedWall), float64(ts.plainWall))-1)
	fmt.Fprintf(r.out, "traced %d trials, %d model steps, %d spans\n", ts.trials, ts.stepCalls, len(spans))
}
