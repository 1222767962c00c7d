// Command misbench is the repository benchmark: five fixed workloads
// (three static MIS runs, two dynamic repair streams), end-to-end metrics
// measured with tracing off, and a separate traced run that attributes the
// time of each operation to the simulator's layers.
//
// It is its own Go module (go.mod beside this file, with a replace
// directive pointing at the repository root), so the root module's
// `go build ./...` and `go test ./...` do not build it. Run it from this
// directory or through run.sh:
//
//	go run . -seed 1 -out results.json          # all workloads, tracing off
//	go run . -traced -out layers.json -spans spans.jsonl
//	go run . -compare base.json new.json        # apply BENCHMARK.json's bounds
//	bash cmd/misbench/run.sh --workload dyn-hub --seed 3 --seconds 10 --trace 0
//
// A run performs a fixed number of ops per workload, so the simulated work
// and its counters are deterministic in the seed, and checks every output.
// Times are reported in reference seconds: each op's time is scaled by a
// fixed kernel measured between the ops (ref.go), which cancels most of a
// shared host's drift. With -workload, the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"} carrying
// exactly the metrics BENCHMARK.json lists: its end_to_end set, or its
// per_layer set under -trace 1. README.md documents the workloads, every
// metric and the layer mapping.
//
// The benchmark times its own calls into each layer's public functions and
// attaches an in-memory obs.Tracer (tracer.go) through the existing hooks:
// core.Options.Tracer for static runs and dynamic.Params.Tracer for repair
// engines. It imports only the root package, internal/core, internal/obs
// and internal/dynamic.
package main
