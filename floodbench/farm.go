package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/study"
)

// farmSweep returns the farm-tiny grid for a workload seed: 100 small
// edge-MEGs × {flood, pull}, two trials per cell.
func farmSweep(seed uint64) (study.Sweep, error) {
	texts := make([]string, 100)
	for i := range texts {
		texts[i] = fmt.Sprintf("edgemeg:n=64,p=%.4f,q=0.1", 0.01+float64(i)*1e-4)
	}
	models, err := parseSpecs(texts)
	if err != nil {
		return study.Sweep{}, err
	}
	protocols, err := parseSpecs([]string{"flood", "pull"})
	if err != nil {
		return study.Sweep{}, err
	}
	sw := study.Sweep{Models: models, Protocols: protocols, Trials: 2, Seed: seed, Workers: 1}
	return sw, sw.Validate()
}

// farm is an in-process sweepd: a campaign manager with a state
// directory behind a loopback HTTP server, plus the offline reference
// the farm's results must reproduce.
type farm struct {
	sw     study.Sweep
	dir    string
	mgr    *campaign.Manager
	srv    *httptest.Server
	ref    []study.CellRecord // offline study.RunSweep of the grid, wall times stripped
	refCSV []byte
}

func (f *farm) close() {
	f.srv.Close()
	f.mgr.Close()
}

// spanHeader carries the client's RPC span to the server's handler span.
const spanHeader = "X-Floodbench-Span"

// serverSpans wraps the sweepd handler so that a traced request gets a
// campaign.server span under the client span that sent it.
func serverSpans(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.Atoi(req.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		id := rec.begin("campaign.server", parent, -1, -1)
		h.ServeHTTP(w, req)
		rec.end(id)
	})
}

// rpcMeter is the worker's http.RoundTripper. It counts every RPC
// attempt and every failed one, and times each cell from the start of
// its lease RPC to the end of its completion RPC. When rec is set it
// also records a span per RPC and per cell computation.
type rpcMeter struct {
	base http.RoundTripper
	rec  *recorder // nil on untraced passes
	pass int       // the pass span, parent of the RPC spans

	mu         sync.Mutex
	rpcs       int64
	failed     int64
	leaseStart time.Time
	cell       int // compute span of the cell in flight, -1 when none
	leases     int // lease RPCs so far; the op id of RPC and cell spans
	cellMS     []float64
}

// RoundTrip implements http.RoundTripper. An RPC ends when the caller
// closes the response body, after reading it.
func (m *rpcMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	name := rpcName(req)
	m.mu.Lock()
	m.rpcs++
	start := time.Now()
	if name == "lease" {
		m.leaseStart = start
		m.leases++
	}
	op := m.leases
	if name == "complete" {
		m.rec.end(m.cell)
		m.cell = -1
	}
	parent := m.pass
	rec := m.rec
	m.mu.Unlock()
	id := rec.begin("campaign."+name, parent, op, -1)
	if id >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := m.base.RoundTrip(req)
	if err != nil || resp.StatusCode >= 400 {
		m.mu.Lock()
		m.failed++
		m.mu.Unlock()
	}
	if err != nil {
		rec.end(id)
		return resp, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() {
		rec.end(id)
		now := time.Now()
		m.mu.Lock()
		defer m.mu.Unlock()
		switch name {
		case "lease":
			m.cell = rec.begin("campaign.cell", parent, op, -1)
		case "complete":
			m.cellMS = append(m.cellMS, ms(now.Sub(m.leaseStart)))
		}
	}}
	return resp, nil
}

// rpcName names an RPC after its endpoint.
func rpcName(req *http.Request) string {
	p := strings.Trim(req.URL.Path, "/")
	switch {
	case strings.HasSuffix(p, "/report"):
		return "report"
	case p == "campaigns" && req.Method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(p, "campaigns/") && req.Method == http.MethodDelete:
		return "delete"
	}
	return p
}

// endOnClose calls end once, when the body is first closed.
type endOnClose struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// farmTiny pushes the grid through an in-process sweepd, pass after
// pass: Submit, one campaign.Work worker with Drain that waits for each
// reply, then the report, which must match the offline run byte for
// byte. A traced run alternates untraced and traced passes.
func farmTiny(r *run) error {
	f, err := setup(r, func(i int) (*farm, func(), error) {
		sw, err := farmSweep(r.seed)
		if err != nil {
			return nil, nil, err
		}
		f := &farm{sw: sw, dir: filepath.Join(r.dir, fmt.Sprintf("farm-%d", i))}
		mgr, err := campaign.NewManager(campaign.Options{Dir: f.dir})
		if err != nil {
			return nil, nil, err
		}
		f.mgr = mgr
		f.srv = httptest.NewServer(serverSpans(campaign.NewServer(mgr, nil), r.rec))
		recs, err := study.RunSweep(sw, nil, nil)
		if err != nil {
			f.close()
			return nil, nil, err
		}
		var csv bytes.Buffer
		if err := study.WriteCSV(&csv, study.Report(recs)); err != nil {
			f.close()
			return nil, nil, err
		}
		f.ref, f.refCSV = stripWall(recs), csv.Bytes()
		return f, f.close, nil
	})
	if err != nil {
		return err
	}
	defer f.close()
	sw := f.sw
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	meter := &rpcMeter{base: transport, pass: -1, cell: -1}
	client := &campaign.Client{Base: f.srv.URL, HTTP: &http.Client{Transport: meter}}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	var wall, tracedWall time.Duration
	var cells cellTimes
	var rates passRates
	var passes, tracedPasses int
	start := time.Now()
	for i := 0; i == 0 || (r.traced && i == 1) || time.Since(start) < r.seconds; i++ {
		traced := r.traced && i%2 == 1
		meter.mu.Lock()
		meter.cellMS = meter.cellMS[:0]
		if traced {
			meter.rec = r.rec
			meter.pass = r.rec.begin("campaign.pass", -1, i, -1)
		}
		meter.mu.Unlock()
		t0 := time.Now()
		id, total, err := client.Submit(ctx, sw)
		if err != nil {
			return err
		}
		done, err := campaign.Work(ctx, client, campaign.WorkerOpts{Name: "floodbench", Workers: 1, Drain: true})
		if err != nil {
			return err
		}
		passWall := time.Since(t0)
		meter.mu.Lock()
		r.rec.end(meter.pass)
		meter.rec, meter.pass = nil, -1
		passCells := meter.cellMS
		meter.mu.Unlock()
		r.attempt(int64(done))
		r.check(done == total && total == len(f.ref), "pass %d: worker completed %d of %d cells", i, done, total)
		report, err := client.Report(ctx, id, "csv")
		if err != nil {
			return err
		}
		recs, err := farmRecords(f, id)
		if err != nil {
			return err
		}
		if err := client.Delete(ctx, id); err != nil {
			return err
		}
		checkGridRecords(r, i, recs)
		r.check(bytes.Equal(report, f.refCSV), "pass %d: farm report differs from the offline run's", i)
		r.check(reflect.DeepEqual(recs, f.ref), "pass %d: farm records differ from the offline run's", i)
		if i == 0 {
			fmt.Fprintf(r.out, "digest: %s\n", recordDigest(recs, report))
		}
		if traced {
			tracedWall += passWall
			tracedPasses++
			continue
		}
		passes++
		wall += passWall
		cells.addPass(passCells)
		rates.add(recs, passWall)
	}
	meter.mu.Lock()
	r.attempt(meter.rpcs)
	r.failed += meter.failed
	if meter.failed > 0 {
		fmt.Fprintf(r.out, "FAIL: %d of %d RPCs failed or were retried\n", meter.failed, meter.rpcs)
	}
	meter.mu.Unlock()
	fmt.Fprintf(r.out, "farm-tiny: %d untraced passes, %d traced; %d RPCs\n", passes, tracedPasses, meter.rpcs)
	if r.traced {
		setFarmLayers(r, meter.failed, float64(tracedWall)/float64(tracedPasses)/(float64(wall)/float64(passes))-1)
		return nil
	}
	r.set("trial_s.p50", cells.p50()/1000/float64(sw.Trials))
	rates.set(r)
	r.setCells(cells)
	return nil
}

// farmRecords reads a campaign's checkpoint from the farm's state
// directory and returns its records in the offline run's order, wall
// times stripped.
func farmRecords(f *farm, id string) ([]study.CellRecord, error) {
	data, err := os.ReadFile(filepath.Join(f.dir, id+".ckpt.jsonl"))
	if err != nil {
		return nil, err
	}
	recs, err := study.ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	byKey := study.Index(stripWall(recs))
	out := make([]study.CellRecord, 0, len(f.ref))
	for _, ref := range f.ref {
		if rec, ok := byKey[ref.Key()]; ok {
			out = append(out, rec)
		}
	}
	return out, nil
}

// setFarmLayers turns the traced passes' spans into per-layer metrics.
func setFarmLayers(r *run, retries int64, overheadFrac float64) {
	spans := r.rec.snapshot()
	var lease, complete, server []float64
	var rpcs, cells int
	var compute, passWall time.Duration
	for _, sp := range spans {
		switch sp.Name {
		case "campaign.lease":
			lease = append(lease, ms(sp.dur()))
		case "campaign.complete":
			complete = append(complete, ms(sp.dur()))
			cells++
		case "campaign.server":
			server = append(server, ms(sp.dur()))
		case "campaign.cell":
			if sp.End >= 0 {
				compute += sp.dur()
			}
		case "campaign.pass":
			passWall += sp.dur()
		}
		if strings.HasPrefix(sp.Name, "campaign.") && sp.Parent >= 0 && spans[sp.Parent].Name == "campaign.pass" &&
			sp.Name != "campaign.cell" {
			rpcs++
		}
	}
	leaseP99, leaseP := tail(lease, 99)
	completeP99, completeP := tail(complete, 99)
	r.set("campaign.lease_ms.p50", median(lease))
	r.set("campaign.lease_ms.p99", leaseP99)
	r.set("campaign.complete_ms.p50", median(complete))
	r.set("campaign.complete_ms.p99", completeP99)
	r.set("campaign.server_ms.p50", median(server))
	r.set("campaign.rpcs_per_cell", ratio(float64(rpcs), float64(cells)))
	r.set("campaign.retries", float64(retries))
	r.set("campaign.overhead_frac", 1-ratio(float64(compute), float64(passWall)))
	r.set("trace.overhead_frac", overheadFrac)
	fmt.Fprintf(r.out, "traced %d cells: lease p%.2f of %d, complete p%.2f of %d, %d server spans\n",
		cells, leaseP, len(lease), completeP, len(complete), len(server))
}
