// Package pipeline composes multi-phase batch executions into one run.
//
// The paper's algorithms are phase compositions over shrinking residual
// subgraphs: Phase I on the input graph, shattering on the Phase I
// residual, Phase III on the shattered survivors, with a one-round
// all-awake synchronization charged at every phase boundary (Section 1.1's
// model lets a phase start with every surviving node awake; the
// synchronization plays that role in the accounting). Every phase runs on
// the batch runtime (sim.RunBatch), and this package supplies the shared
// machinery between them:
//
//   - one sim.Mem buffer pool threaded through every phase's Config, so
//     engine buffers are allocated once per pipeline (or once in all, for
//     callers that reuse a Mem across many pipelines) instead of once per
//     phase — crossing a phase boundary costs zero steady-state engine
//     allocations;
//   - the residual node set in original IDs and its induced subgraphs;
//   - the stats.Accumulator mapping each phase's local measurements back
//     to original node IDs;
//   - per-phase seed derivation, so phases draw from independent streams
//     of one root seed.
//
// internal/core builds the paper's Algorithm 1 and Algorithm 2 on these
// primitives; the benchmarks and the CLIs reach the batch pipeline
// through core. A phase made of several engine runs (degreduce,
// avgenergy) takes the pipeline and calls Join, SetResidual and Record
// for each run as it ends, inside the span core opens, so each run's
// phase record closes its own rounds. This package is the only static
// code that maps a run's local IDs back to the input graph.
package pipeline
