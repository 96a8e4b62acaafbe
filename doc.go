// Package repro is a from-scratch Go reproduction of "Information Spreading
// in Dynamic Graphs" (A. Clementi, R. Silvestri, L. Trevisan; PODC 2012,
// arXiv:1111.0583): the (M, α, β)-stationarity framework for bounding the
// flooding time of Markovian evolving graphs, together with every model the
// paper instantiates it on — edge-MEGs, node-MEGs, the random waypoint and
// random walk mobility models, and random paths over graphs.
//
// # Simulation API (v6)
//
// The core abstraction is dyngraph.Dynamic — N, Step, ForEachNeighbor —
// with four optional batch extensions that hot paths consume when a
// model offers them:
//
//   - dyngraph.Batcher exposes the whole current snapshot as a flat
//     []Edge batch (AppendEdges). The delta engines seed their adjacency
//     from it, with no per-edge callbacks; models whose state already is
//     edge-shaped (sparse edge-MEG alive lists, geometry cell lists,
//     recorded traces, static graphs) produce it natively.
//   - dyngraph.ArcBatcher is the directed counterpart (AppendArcs), for
//     virtual graphs whose adjacency is asymmetric: dyngraph.Subsample —
//     the §5 push-gossip reduction — enumerates each node's kept subset
//     as arcs, and the flooding engine propagates along them one-way.
//   - dyngraph.NeighborLister exposes one node's neighbors as a slice
//     (AppendNeighbors), for consumers that touch few nodes per step
//     (random walkers, pull gossip, push subsampling), read through
//     dyngraph.AppendNeighbors, whose lister path does not allocate.
//   - dyngraph.DeltaBatcher (v6) exposes the churn of the most recent
//     Step as flat born/died batches (AppendDeltas) — O(n) per step in
//     the paper's sparse regime p = c/n, versus the Θ(n) edges of the
//     snapshot itself. The edge-MEG simulators (sparse, dense,
//     generalized — so also the four-state chain), Static and trace
//     Replay implement it natively from their own step logic;
//     dyngraph.NewDeltifier adapts any other model by diffing consecutive
//     snapshots. Consumers seed a persistent dyngraph.Adjacency from one
//     snapshot batch and Apply the deltas, maintaining the current graph
//     in O(churn) per step.
//
// Three engines consume the delta stream through a scratch-held
// Adjacency: flood.Run runs an incremental active-set engine (scan only
// informed nodes that may still reach someone; re-activate the informed
// endpoints of born edges), and flood.Parsimonious and flood.Async read
// their transmitters' neighborhoods from the store. The order-sensitive
// engines — pull, push–pull, random walks, whose random draws index into
// neighbor lists — win model-side instead: the edge-MEG simulators keep
// their per-node lists live incrementally in rebuild-identical order, so
// fixed-seed trajectories are unchanged while the O(m) per-step rebuild
// disappears. The opt-in edgemeg fastchurn parameter further replaces
// the death sweep with geometric skipping (same law, different stream),
// making the whole model step O(churn).
//
// Engine contract. DeltaBatcher is the only undirected engine contract:
// flood.Run, flood.Async and flood.Parsimonious consume a model's churn
// stream and hand any other undirected Dynamic to a scratch-held
// dyngraph.Deltifier at entry, so each engine has one code path; an
// ArcBatcher (the k-push subsampled graph) keeps flood.Run's directed arc
// scan, and the Deltifier panics on one rather than symmetrise its arcs.
// The edge-scan, member-scan and per-step-rebuild fallbacks of earlier
// layers are gone; their fixed-seed pins run through the Deltifier and
// still hold byte for byte.
//
// The v5 spreading core underneath is allocation-free once warm: informed
// sets are word-packed bitsets (internal/bitset) and all per-run working
// state lives in a reusable flood.Scratch threaded through flood.Opts —
// internal/study gives each worker one for all its trials, and `benchtab
// -json` records the resulting perf trajectory machine-readably, gated in
// CI against the committed BENCH_<date>.json baseline (see the README's
// Performance section).
//
// The package-level dyngraph.AppendEdges / dyngraph.AppendNeighbors fall
// back to ForEachNeighbor adapters for models implementing neither, so
// every consumer works with every model and merely runs faster on batch-
// capable ones (see the BenchmarkFlood*/BenchmarkPull* benchmarks in
// bench_test.go).
//
// Construction is spec-driven on both axes of an experiment, through two
// registries sharing the generic internal/spec machinery (name + typed
// parameters, CLI-string and JSON round-trips):
//
//   - internal/model builds dynamic graphs: model.Build(spec, seed) with
//     specs like "edgemeg:n=512,p=0.004,q=0.096". Model packages
//     self-register from init functions; importing repro/internal/model/all
//     links every built-in model into a binary.
//   - internal/protocol builds spreading protocols: protocol.Build(spec,
//     seed) with specs like "flood", "push:k=2", "pull", "pushpull:k=1",
//     "parsimonious:active=8". A built Protocol holds its parameters and
//     (for randomized protocols) a private RNG stream, and runs any model
//     via Run(d, source, opts), returning a flood.Result. All protocol
//     engines live in internal/flood and share one bookkeeping core, so a
//     Result field added once is tracked by every protocol.
//
// Registering a new model or protocol is a one-file change in its own
// package — no CLI, example, or experiment needs edits.
//
// internal/study is the experiment engine over both registries: a
// study.Study crosses one model spec with one protocol spec and runs
// Trials independent executions on a bounded worker pool, deriving
// per-trial model and protocol RNG streams from a master seed via
// rng.Seed — equal Studies yield identical Cells (per-trial Results plus a
// stats.Summary) for any Workers value. study.Grid sweeps whole
// model×protocol grids, and Cell.WriteJSONL emits per-trial JSON lines for
// downstream tooling.
//
// The v4 layer on top of the study engine is the declarative sweep
// runner, the production path for the paper's parameter-sweep campaigns:
//
//   - study.Sweep declares a whole grid — model specs × protocol specs ×
//     a trial count under one master seed — parseable from a JSON file
//     (study.ParseSweepFile) in which specs are CLI strings or spec
//     objects. Cell results are a pure function of the Sweep value.
//   - study.RunSweep executes the grid, skipping cells already present in
//     a loaded checkpoint and streaming each newly completed cell's
//     study.CellRecord — key (model, protocol, trials, seed) plus
//     per-trial times/half-times/informed counts — to a sink before the
//     next cell starts. study.ReadCheckpoint / study.LoadCheckpoint parse
//     the JSONL back, dropping a trailing line truncated by a kill, so an
//     interrupted sweep resumes losing at most the cell in flight.
//   - study.Report aggregates records into canonically sorted rows
//     (median/mean/p95 flooding time, median half time, mean informed
//     fraction); study.WriteCSV and study.WriteMarkdown render them.
//     Resumed and uninterrupted runs report byte-identically for any
//     Workers values.
//
// cmd/sweep drives all of this from the command line; the E18 experiment
// and examples/p2pchurn run their grids through the same path.
//
// The v7 layer distributes those campaigns across machines.
// internal/campaign turns the checkpoint's existing contract — cells
// keyed by (model, protocol, trials, seed), later duplicates win, results
// a pure function of the sweep definition — into a lease-based work
// queue: campaign.Manager holds submitted sweeps and leases cells out
// with expiring random tokens; campaign.NewServer exposes it over
// HTTP/JSON (submit, lease, complete, release, live progress and
// CSV/markdown report endpoints); campaign.Client and campaign.Work are
// the worker side, with transient-error retry and graceful shutdown
// (finish and post the in-flight cell, or release an unstarted lease).
// Worker death is handled purely by lease expiry and duplicate
// completions are accepted as harmless — no fencing, heartbeats, or
// consensus — so a farm of any size, including one suffering mid-cell
// worker kills, reports byte-identically to the offline single-process
// run. cmd/sweepd is the server binary; cmd/sweep -server is the
// submitter and worker. Completed records carry wall_ms (diagnostic
// only, never reported) which feeds adaptive lease TTLs and progress
// throughput. study.RunSweepOpts adds the same graceful-stop and
// progress hooks to local runs, and study.Sweep.CheckRecord gates every
// record a campaign accepts. See docs/SWEEPD.md for the protocol.
//
// The v8 layer makes performance a continuously observed property of all
// of this rather than a benchmark-day artifact. internal/telemetry is an
// FTDC-style metrics-capture subsystem: a telemetry.Collector registers
// gauge and counter sources (sweep cells/trials/steps done, scratch-pool
// footprint via the Bytes accounting on flood.Scratch and the dyngraph
// stores, farm lease/completion churn, runtime heap/GC stats) and samples
// them once per second — plus once per completed cell — into a
// delta-encoded, size-capped, ring-buffered capture file
// (*.ftdc.jsonl) whose reader tolerates kill truncation exactly like the
// sweep checkpoint. The hot paths stay allocation-free: engines and sweep
// loops only bump atomic counters; reading, encoding, and fsync batching
// happen on the collector's goroutine. study.SweepOpts.Telemetry wires a
// local sweep, campaign.WorkerOpts.Telemetry a farm worker, and
// campaign.Options.Telemetry the server (which additionally serves live
// snapshots on GET /metrics and per-campaign worker heartbeats and
// counters on GET /campaigns/{id}/metrics, and supports DELETE
// /campaigns/{id} for finished-state GC). telemetry.ReadCaptureFile and
// telemetry.Summarize decode and aggregate captures — `sweep
// -telemetry-report` renders the table, and `benchtab -compare a.json
// b.json` diffs two microbenchmark records row by row with the same
// slack semantics as the CI baseline gate. See docs/TELEMETRY.md.
//
// The v9 layer scales the sparse stationary regime to n = 10⁶ on one
// box. The edgemeg simulator's alive-pair position map and per-step
// exclude map became one open-addressing rank index (power-of-two
// slots, linear probing, backward-shift deletion); dyngraph.Adjacency
// became a CSR arena — {off, len, cap} segment headers over one shared
// int32 buffer with move-to-end growth and slack-preserving compaction,
// layout-preserved across same-n Resets; the flood frontier sets became
// two-level bitsets (bitset.TwoLevel: a summary word per 64 leaf words)
// so the delta engine's per-step sweep is O(active words) rather than
// O(n/64); and the spec-versioned stream parameter on edgemeg/edgemeg4
// selects the sampling stream — stream=v1 (default) replays every pre-v9
// RNG stream byte-for-byte, stream=v2 draws O(churn) numbers per step
// via geometric skipping over the Bernoulli sweeps and, for the
// generalized chain, per-state-class cohorts with conditional-alias
// destinations. Net: ~3.6 ms/step and zero warm allocations at n = 10⁶
// with ~110 MB tracked resident (Bytes() accounting, pinned under the
// 4 GB budget by internal/flood/million_test.go), per-step churn
// surfaced as born_per_step/died_per_step telemetry gauges, and the CI
// perf gate widened to every mode-independent BENCH row (benchtab
// -compare -gate-mode-independent), including the two new million-node
// rows.
//
// The v10 layer brings the geometric models into the O(churn) regime the
// edge-MEGs have enjoyed since v6. geometry.CellList became a persistent
// incremental index — node→cell assignments with per-cell member lists
// and swap-remove slots, so Move costs O(1) and a step that moves k
// nodes costs O(k) maintenance instead of an O(n) rebuild — and every
// mobility model (waypoint with a new pause parameter, direction,
// region waypoint, grid walk, discrete waypoint) now implements
// dyngraph.DeltaBatcher natively: a two-pass scan classifies died pairs
// against the pre-move index and born pairs against the post-move one,
// deduplicating both-moved pairs, so the per-step churn computation is
// O(moved × local density) and the generic O(m log m) Deltifier diff is
// no longer on any registered model's path. The flood engines report the
// mover counts through the new moved_per_step telemetry gauge
// (dyngraph.MoveReporter), warm mobility steps are allocation-free
// (member-list slack + pinned scratch, internal/mobility/alloc_test.go),
// and native, Batcher-only and Deltifier runs stay byte-identical per seed
// (internal/flood/equiv_test.go, TestMobilityDispatchEquivalence). The
// waypoint-4k delta/deltifier BENCH pair gates the speedup in CI; the
// 64k waypoint rows pin the large-geometry warm regime.
//
// The library lives under internal/ (see DESIGN.md for the module map);
// cmd/ holds the CLIs, examples/ runnable scenarios, and bench_test.go one
// benchmark per experiment of EXPERIMENTS.md plus the flooding and
// protocol-engine hot-loop benchmarks. docs/PAPER_MAP.md maps the paper's
// sections and theorems to packages and experiments.
package repro
