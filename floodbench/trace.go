package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int           `json:"op"`     // trial or cell index the span belongs to
	Step   int           `json:"step"`   // simulated step for per-step spans, -1 otherwise
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps the spans of one run in memory; they are written out
// only when the run ends. A nil recorder records nothing, which is how
// untraced runs share code with traced ones.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex // the farm's server handler records from its own goroutine
	spans []span
}

// newRecorder preallocates room for a traced meg-1m run's spans, so that
// growing the slice does not land a large copy inside a span.
func newRecorder() *recorder { return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent, op, step int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Step: step, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children are clipped to the
// parent's interval and overlapping children are counted once, so
// concurrent children (server handlers under a client call) never
// drive a self time below zero.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[i], spans)
	}
	return self
}

// covered returns the length of the union of the children's intervals
// within the parent's interval.
func covered(parent span, kids []int, spans []span) time.Duration {
	type interval struct{ lo, hi time.Duration }
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.lo, b.lo) })
	var total, reach time.Duration
	reach = parent.Start
	for _, iv := range ivs {
		if iv.hi <= reach {
			continue
		}
		total += iv.hi - max(iv.lo, reach)
		reach = iv.hi
	}
	return total
}

// layerTotal is the summed self time and the number of spans of one
// span name.
type layerTotal struct {
	self  time.Duration
	count int
}

type layerTotals map[string]layerTotal

// totals sums self time and counts spans per span name.
func totals(spans []span) layerTotals {
	self := selfTimes(spans)
	t := layerTotals{}
	for i, s := range spans {
		e := t[s.Name]
		e.self += self[i]
		e.count++
		t[s.Name] = e
	}
	return t
}

func (t layerTotals) self(name string) time.Duration { return t[name].self }

func (t layerTotals) count(name string) int { return t[name].count }

// writeSpans writes the spans as JSON lines, each with its self time.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		line := struct {
			ID int `json:"id"`
			span
			Self time.Duration `json:"self_ns"`
		}{i, s, self[i]}
		if err := enc.Encode(line); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
