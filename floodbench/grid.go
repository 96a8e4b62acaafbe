package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/spec"
	"repro/internal/study"
)

// gridModels and gridProtocols are the protocol-grid axes, in the order
// of modelLabels and protocolLabels.
var (
	gridModels = []string{
		"edgemeg:n=512,p=0.004,q=0.096",
		"edgemeg:n=2048,p=0.0001,q=0.0999",
		"waypoint:n=512,L=45,r=1,vmin=1",
	}
	gridProtocols = []string{"flood", "push:k=1", "pull", "pushpull:k=1", "parsimonious:active=32", "async:rate=1"}
)

// parseSpecs parses spec strings.
func parseSpecs(texts []string) ([]spec.Spec, error) {
	specs := make([]spec.Spec, len(texts))
	for i, t := range texts {
		s, err := spec.Parse(t)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// gridSweep returns the protocol-grid sweep for a workload seed.
func gridSweep(seed uint64) (study.Sweep, error) {
	models, err := parseSpecs(gridModels)
	if err != nil {
		return study.Sweep{}, err
	}
	protocols, err := parseSpecs(gridProtocols)
	if err != nil {
		return study.Sweep{}, err
	}
	sw := study.Sweep{Models: models, Protocols: protocols, Trials: 16, Seed: seed, MaxSteps: 65536, Workers: 2}
	return sw, sw.Validate()
}

// gridPass is one checkpointed pass over the grid.
type gridPass struct {
	records []study.CellRecord
	wall    time.Duration
	cellMS  []float64 // from the start of each cell to its record reaching the sink
}

// protocolGrid runs the 3 × 6 grid through study.RunSweepOpts, pass after
// pass, with every cell checkpointed and fsynced as cmd/sweep
// -checkpoint does. A traced run alternates untraced and traced passes.
func protocolGrid(r *run) error {
	sw, err := setup(r, func(int) (study.Sweep, func(), error) {
		sw, err := gridSweep(r.seed)
		if err != nil {
			return sw, nil, err
		}
		// Warm each worker's scratch with one trial per cell.
		warm := sw
		warm.Trials = 1
		_, err = study.RunSweep(warm, nil, nil)
		return sw, nil, err
	})
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, "grid.ckpt.jsonl")
	var first []study.CellRecord
	var wall, tracedWall time.Duration
	var cells cellTimes
	var rates passRates
	var passes, tracedPasses int
	start := time.Now()
	for i := 0; i == 0 || (r.traced && i == 1) || time.Since(start) < r.seconds; i++ {
		traced := r.traced && i%2 == 1
		p, err := runGridPass(r, sw, path, traced, i)
		if err != nil {
			return err
		}
		r.attempt(int64(len(p.records)) + int64(len(p.records)*sw.Trials))
		checkGridRecords(r, i, p.records)
		plain := stripWall(p.records)
		if i == 0 {
			first = plain
			var report bytes.Buffer
			if err := study.WriteCSV(&report, study.Report(p.records)); err != nil {
				return err
			}
			fmt.Fprintf(r.out, "digest: %s\n", recordDigest(first, report.Bytes()))
		} else {
			r.check(reflect.DeepEqual(plain, first), "pass %d: records differ from pass 0", i)
		}
		if traced {
			tracedWall += p.wall
			tracedPasses++
			continue
		}
		passes++
		wall += p.wall
		cells.addPass(p.cellMS)
		rates.add(p.records, p.wall)
	}
	fmt.Fprintf(r.out, "protocol-grid: %d untraced passes, %d traced\n", passes, tracedPasses)
	if r.traced {
		setGridLayers(r, first, float64(tracedWall)/float64(tracedPasses)/(float64(wall)/float64(passes))-1)
		return nil
	}
	r.set("trial_s.p50", cells.p50()/1000/float64(sw.Trials))
	rates.set(r)
	r.setCells(cells)
	return nil
}

// passRates collects the throughput of each untraced pass over a grid.
// The run reports the median pass, which a short stall of the machine
// does not move.
type passRates struct{ steps, trials, cells []float64 }

func (p *passRates) add(records []study.CellRecord, wall time.Duration) {
	var steps, trials int64
	for _, rec := range records {
		trials += int64(rec.Trials)
		steps += recordSteps(rec)
	}
	p.steps = append(p.steps, float64(steps)/wall.Seconds())
	p.trials = append(p.trials, float64(trials)/wall.Seconds())
	p.cells = append(p.cells, float64(len(records))/wall.Seconds())
}

func (p *passRates) set(r *run) {
	r.set("steps_per_s", median(p.steps))
	r.set("trials_per_s", median(p.trials))
	r.set("cells_per_s", median(p.cells))
	fmt.Fprintf(r.out, "rates: median of %d passes\n", len(p.cells))
}

// runGridPass runs the sweep once into a fresh checkpoint file and
// checks that the file reads back to the records the sweep returned. A
// traced pass records a span per cell and per checkpoint write.
func runGridPass(r *run, sw study.Sweep, path string, traced bool, pass int) (gridPass, error) {
	var p gridPass
	f, err := os.Create(path)
	if err != nil {
		return p, err
	}
	defer f.Close()
	var rec *recorder
	if traced {
		rec = r.rec
	}
	root := rec.begin("study.pass", -1, pass, -1)
	cell := -1
	var last time.Time
	opts := study.SweepOpts{
		Progress: func(_ study.Key, index, _ int, _ bool) {
			cell = rec.begin("study.cell", root, index, -1)
		},
		Sink: func(cr study.CellRecord) error {
			rec.end(cell)
			now := time.Now()
			p.cellMS = append(p.cellMS, ms(now.Sub(last)))
			id := rec.begin("study.checkpoint", root, len(p.cellMS)-1, -1)
			if err := study.WriteCheckpoint(f, cr); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
			rec.end(id)
			last = time.Now()
			return nil
		},
	}
	if !traced {
		opts.Progress = nil
	}
	last = time.Now()
	start := last
	p.records, err = study.RunSweepOpts(sw, opts)
	p.wall = time.Since(start)
	rec.end(root)
	if err != nil {
		return p, err
	}
	if err := f.Close(); err != nil {
		return p, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return p, err
	}
	back, err := study.ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return p, err
	}
	r.check(reflect.DeepEqual(back, p.records), "pass %d: checkpoint does not read back to the sweep's records", pass)
	if traced {
		reconcilePass(r, pass, root)
	}
	return p, nil
}

// reconcilePass checks that a traced pass's cells and checkpoint writes
// cover its wall time up to the study layer's own overhead, and that the
// overhead is small.
func reconcilePass(r *run, pass, root int) {
	spans := r.rec.snapshot()
	wall := spans[root].dur()
	var parts time.Duration
	for _, sp := range spans[root+1:] {
		if sp.Parent == root {
			parts += sp.dur()
		}
	}
	overhead := ratio(float64(wall-parts), float64(wall))
	fmt.Fprintf(r.out, "pass %d traced: wall_s=%.4f cells+checkpoints_s=%.4f study_overhead=%.4f%%\n",
		pass, wall.Seconds(), parts.Seconds(), 100*overhead)
	r.check(overhead >= 0 && overhead <= reconcileTol, "pass %d: cells and checkpoints %v do not reconcile with wall %v", pass, parts, wall)
}

// checkGridRecords checks the message-conservation law on every trial.
func checkGridRecords(r *run, pass int, records []study.CellRecord) {
	for _, rec := range records {
		for t := range rec.Times {
			r.check(rec.Messages[t] == rec.Useless[t]+int64(rec.Informed[t]-1),
				"pass %d: %s trial %d: messages %d != useless %d + informed-1 %d",
				pass, rec.Key(), t, rec.Messages[t], rec.Useless[t], rec.Informed[t]-1)
		}
	}
}

// stripWall returns the records without their wall times, the one field
// that legitimately differs between two passes.
func stripWall(records []study.CellRecord) []study.CellRecord {
	out := make([]study.CellRecord, len(records))
	for i, rec := range records {
		rec.WallMS = 0
		out[i] = rec
	}
	return out
}

// recordSteps returns Σ(Time+1) over a record's trials. A trial cut off
// at the step cap has Time = -1 and counts no steps: its steps are cheap
// (parsimonious flooding that died out runs to the cap with nothing to
// send), and how many trials die out depends on the seed.
func recordSteps(rec study.CellRecord) int64 {
	var steps int64
	for _, t := range rec.Times {
		steps += int64(t + 1)
	}
	return steps
}

// recordDigest hashes every trial's outputs and the report bytes.
func recordDigest(records []study.CellRecord, report []byte) string {
	dg := newDigest()
	for _, rec := range records {
		for t := range rec.Times {
			dg.add("%s|%s trial %d time=%d half=%d messages=%d useless=%d",
				rec.Model, rec.Protocol, t, rec.Times[t], rec.HalfTimes[t], rec.Messages[t], rec.Useless[t])
		}
	}
	dg.add("%s", report)
	return dg.sum()
}

// setGridLayers turns the traced passes' spans into per-layer metrics.
func setGridLayers(r *run, records []study.CellRecord, overheadFrac float64) {
	spans := r.rec.snapshot()
	np := len(protocolLabels)
	var protoMS, protoN = make([]float64, np), make([]float64, np)
	var modelMS, modelN = make([]float64, len(modelLabels)), make([]float64, len(modelLabels))
	var ckptMS []float64
	var passWall, parts time.Duration
	for _, sp := range spans {
		switch sp.Name {
		case "study.cell":
			protoMS[sp.Op%np] += ms(sp.dur())
			protoN[sp.Op%np]++
			modelMS[sp.Op/np] += ms(sp.dur())
			modelN[sp.Op/np]++
			parts += sp.dur()
		case "study.checkpoint":
			ckptMS = append(ckptMS, ms(sp.dur()))
			parts += sp.dur()
		case "study.pass":
			passWall += sp.dur()
		}
	}
	for i, label := range protocolLabels {
		r.set("protocol."+label+".cell_ms", ratio(protoMS[i], protoN[i]))
		var msgs, useful int64
		for k, rec := range records {
			if k%np != i {
				continue
			}
			for t := range rec.Times {
				msgs += rec.Messages[t]
				useful += int64(rec.Informed[t] - 1)
			}
		}
		r.set("protocol."+label+".useful_frac", ratio(float64(useful), float64(msgs)))
	}
	for i, label := range modelLabels {
		r.set("model."+label+".cell_ms", ratio(modelMS[i], modelN[i]))
	}
	r.set("study.checkpoint_ms.p50", median(ckptMS))
	r.set("study.overhead_frac", 1-ratio(float64(parts), float64(passWall)))
	r.set("trace.overhead_frac", overheadFrac)
	fmt.Fprintf(r.out, "traced cells per protocol %v (%s)\n", protoN, strings.Join(protocolLabels, ","))
}
