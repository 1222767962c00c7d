// Package sim implements the synchronous CONGEST message-passing model
// with sleeping (energy) semantics, as defined in Section 1.1 of Ghaffari &
// Portmann (PODC 2023).
//
// The network is an undirected graph; computation proceeds in synchronous
// rounds. In every round each *awake* node first composes at most one
// message per incident edge, then receives the messages sent to it in the
// same round by awake neighbors, and finally decides the next round in
// which it will be awake. A sleeping node performs no computation, sends
// nothing, receives nothing (messages addressed to it are dropped), and can
// only wake by its own pre-arranged timer — never by a neighbor.
//
// The engine measures time complexity (total rounds) and energy complexity
// (per-node awake-round counts), and accounts message sizes in bits against
// the CONGEST budget B = O(log n).
//
// # One engine, two ways to write a protocol
//
// RunBatch is the engine: it owns the wake schedule, the router, the
// CONGEST accounting and the tracer hook. A protocol reaches it in one of
// two forms:
//
//   - Machine, run with Run: one automaton per node, driven with
//     Init/Compose/Deliver calls. Easiest to write and read; Run adapts
//     the machines to the engine, which costs one Compose and one Deliver
//     call per awake node per round. The per-node machines of every
//     protocol package are the executable specification; Phase III
//     (internal/phase3), regularized Luby and the Section 4 slotted
//     stages (internal/avgenergy) run this way in production.
//   - BatchMachine, run with RunBatch: one automaton per protocol, driven
//     with whole awake sets per call over flat struct-of-arrays state.
//     The engine makes O(1) interface calls per round regardless of how
//     many nodes are awake, routes every message through one pooled
//     buffer, and — with a warm Mem pool — reaches zero steady-state
//     allocations per round. The hot protocols (luby, phase1, ghaffari,
//     degreduce, shatter) execute this way.
//
// Both forms see the same semantics, delivery order and counters: for any
// protocol written both ways, Run and RunBatch produce byte-identical
// Results (enforced by the differential tests in the protocol packages and
// by determinism_test.go at the repo root). The engine itself is checked
// against runPerNode, an independent per-node round loop kept in this
// package's tests.
//
// The engine executes a run on the calling goroutine: compose, route, and
// deliver walk the sorted awake set in order, and nothing in the package
// starts a goroutine. Independent runs may execute concurrently, each on
// its own Mem (see internal/bench's throughput executor). The router
// rejects a unicast to a node that is not the sender's neighbor: the run
// fails with an error, like a non-increasing wake round.
package sim
