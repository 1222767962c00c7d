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
// Execution. Repairs run on the SoA batch runtime: the affected region is
// tracked in bitvec.Sparse sets, whose row sweeps are call-free loops
// over a row's keys and whose reset zeroes only the words a batch wrote.
// Adjacency rows are sorted and start in one arena with a few free slots
// behind each row, so an edge insert rarely reallocates, and an edit at a
// row's end (every edge of the newest node) skips the search. The first
// edgeless row a batch's edge inserts reach is sized for the rest of the
// batch, so the hub attack's reconnect batch allocates its replacement
// node's row once. Every node slot keeps its number of member neighbors,
// moved by joins, evictions and edge edits, so a coverage probe walks its
// row only to wake it and reads its replies from the count, and the
// conflict sweep skips a dirty member whose count is 0; Check recounts
// every row. The uncovered region is split into connected
// components by graph.Components (partition.go). Each component is an
// independent election: singletons join analytically without an engine
// run, and the rest are composed as internal/pipeline runs (batch luby /
// batch ghaffari with a Luby finisher), one after another in component
// order on the engine's one sim.Mem. An ordered merge then folds the
// per-component counters and set joins. Params.Tracer receives a phase
// span per election stage (in component order), a "repair/singleton" span
// for the analytic joins, and a synthetic one-round "repair/detect" span
// per batch. Repairs run on the calling goroutine; the package starts no
// goroutine.
//
// Testing. This package's tests hold every Apply to oracles that read
// only the public accessors and share no repair code: the MIS invariant
// (Check); locality (every node charged awake lies within two hops of an
// update endpoint, in the graph before or after the window); stability
// (a live node that was not charged keeps its membership); and a naive
// map-based replay of the window's eviction, probe, and component split,
// which must reproduce the batch's counters, its charged nodes, and its
// detection-round messages.
//
// One Apply call is one coalesced window: overlapping repair regions of
// its updates merge and are re-elected once, which is what turns the unit
// of traffic from a run into an update. The public
// energymis.DynamicMIS.ApplyBatch cuts an update stream into windows of
// DynamicOptions.Window updates and applies each with one Apply call.
package dynamic
