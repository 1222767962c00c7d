// Command mistrace analyzes versioned JSONL run traces produced by the
// library's Options.TracePath (and mislab's -trace flag).
//
// Usage:
//
//	mistrace summary [-top k] [-width n] trace.jsonl
//	mistrace diff a.jsonl b.jsonl
//	mistrace check trace.jsonl...
//	mistrace csv [-o out.csv] trace.jsonl
//	mistrace fit [-compare TWIN_MIS.json] [-out TWIN_MIS.json] [-csv residuals.csv]
//
// summary prints the run metadata, the totals from the closing summary
// record, a per-phase table (rounds, awake node-rounds and their share,
// messages, residual set size, wall time, and the part of it spent in
// engine rounds, so wall − engine is the phase's set-up and glue outside
// rounds), the top-k phases by awake
// node-rounds, and the awake-vs-round curve as a sparkline. For a trace
// whose engine rounds carry stage times (schema version 2), it also prints
// each stage's share of the engine rounds' wall time (compose, route,
// deliver, schedule) and the route time per message sent.
//
// diff aligns two traces phase by phase (retried phases pre-summed per
// side) and prints per-phase and total deltas — e.g. to compare two
// algorithms, two seeds, or two revisions on one workload.
//
// check validates internal consistency: structural invariants (summary
// present, rounds inside phase spans, contiguous sequence numbers, a
// round's stage times within its wall time), each phase record against
// the rounds it closes (its awake node-rounds, messages sent and
// dropped, bits and violations equal the sums of the round records
// since the previous phase record; rounds are left out, as an engine
// round with no awake node emits no record), and conservation
// (per-round deltas and per-phase aggregates each sum exactly to the
// summary the run's Result reported). Exits non-zero and lists every
// violation if a trace fails.
//
// csv emits the awake-vs-round curve as CSV for plotting.
//
// fit is the analytical-twin gate (internal/twin, docs/TWIN.md): it runs
// the deterministic multi-size sweep, fits the constants of the paper's
// closed-form complexity curves by least squares, and — with -compare —
// evaluates the fit against the committed TWIN_MIS.json, exiting 1 when
// a measured curve leaves its tolerance band. -out regenerates the
// baseline; -csv writes the residual table for the CI artifact.
package main
