// Package bench is the machine-readable benchmark harness. It runs named
// suites of simulator workloads (static MIS runs across graph families and
// sizes, dynamic churn workloads, multi-run and update-stream throughput),
// collects the model-level counters (rounds, awake node-rounds, messages,
// bits) next to wall-time and allocation measurements, and emits a
// versioned JSON report (BENCH_MIS.json at the repo root) that
// `cmd/bench -compare` diffs to gate performance regressions in CI.
//
// The headline throughput metric is ns/awake-node-round: wall time divided
// by the total awake node-rounds the run simulates. It normalizes across
// workloads of different shapes — an engine change that makes each
// simulated awake step cheaper moves it regardless of which suite caught
// it — and is the metric the CI gate thresholds.
package bench
