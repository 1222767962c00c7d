// Package obs is the observability layer of the simulation stack: tracing
// hooks and a versioned JSONL run-trace format.
//
// The package deliberately has no dependency on the engine or graph
// packages — sim, pipeline, and core all import obs, never the other way
// around — and costs nothing when disabled: a nil Tracer in sim.Config is
// one pointer comparison per round.
//
// Two pieces:
//
//   - Tracer (tracer.go): the hook interface. The engine (sim.RunBatch,
//     which sim.Run runs on) invokes Round once per executed round with
//     that round's counter deltas; internal/pipeline brackets each phase
//     of a composed run with PhaseStart/PhaseEnd spans carrying rounds,
//     energy deltas, and the residual size. MultiTracer fans events out
//     to several sinks.
//
//   - TraceWriter/ReadTrace (trace.go) and the analyzers (analyze.go): a
//     versioned JSONL run-trace file — one JSON record per line, a header
//     with schema version and host environment metadata (TraceEnv, also
//     stamped into TWIN_MIS.json), then round/phase events in execution
//     order and a closing summary written from the run's authoritative
//     Result, so CheckTrace can verify that the streamed per-round
//     counters really do sum to the deterministic totals. Traces are deterministic in
//     (graph, algorithm, seed) up to wall-time fields; Canonical zeroes
//     those for byte-level comparison. cmd/mistrace is the CLI front end.
package obs
