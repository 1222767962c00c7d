// Package dynamic maintains a maximal independent set under graph churn,
// extending the paper's sleeping model to a dynamic workload: when an edge
// or node is inserted or removed, only the nodes in the 1–2 hop
// neighborhood of the update wake up and repair the set, instead of the
// whole network re-running a static algorithm.
//
// Model. The static algorithms assume nodes wake only by their own timers.
// For dynamic updates we add the standard interrupt assumption of dynamic
// distributed models (e.g. Chatterjee–Gmyr–Pandurangan, PODC 2020): the
// adversary's topology change wakes the endpoints of the update, and a
// node that changes its MIS status wakes its neighbors with a notification.
// All other nodes keep sleeping. Energy is accounted exactly as in the
// static runs — awake rounds per node — plus CONGEST messages.
//
// Repair. A batch of updates is applied structurally first; then
//
//  1. conflicts (an inserted edge with both endpoints in the set) are
//     resolved by evicting the endpoint whose departure uncovers fewer
//     nodes (lower degree, ties toward the higher ID);
//  2. the uncovered region U — nodes left without a member neighbor,
//     all within two hops of some update — is collected by local probes;
//  3. a distributed re-election (Luby, or Ghaffari's desire-level dynamics
//     with a Luby finisher) runs on the induced subgraph G[U] through the
//     same sim engine as the static phases, so rounds, awake rounds and
//     messages are measured with identical semantics.
//
// Correctness: eviction restores independence (only inserted edges can
// violate it); U nodes have no member neighbors, so electing an MIS of
// G[U] and adding it keeps independence and restores maximality. Every
// woken node is within two hops of an update endpoint.
//
// Engine paths. The default repair path runs on the SoA batch runtime:
// the affected region is tracked in epoch-stamped bitvec.Stamped sets,
// and the uncovered region is split into connected components by a
// union-find partitioner (partition.go). Each component is an independent
// election: singletons join analytically without an engine run, and the
// rest are composed as internal/pipeline runs (batch luby / batch
// ghaffari with a Luby finisher), one after another in component order on
// the engine's one sim.Mem. An ordered merge then folds the per-component
// counters and set joins. Params.Tracer receives a phase span per
// election stage (in component order), a "repair/singleton" span for the
// analytic joins, and a synthetic one-round "repair/detect" span per
// batch. Params.Legacy selects the frozen per-node reference path
// (repair_legacy.go), which shares the partition, seed derivation, and
// merge — identical sets and identical deterministic counters, proven by
// this package's differential tests, the only code that sets it. Repairs
// run on the calling goroutine; the package starts no goroutine.
//
// One Apply call is one coalesced window: overlapping repair regions of
// its updates merge and are re-elected once, which is what turns the unit
// of traffic from a run into an update. The public
// energymis.DynamicMIS.ApplyBatch cuts an update stream into windows of
// DynamicOptions.Window updates and applies each with one Apply call.
package dynamic
