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
//     call per awake node per round. Per-node machines are the executable
//     specification of every protocol: for the hot protocols they live in
//     the packages' test files, while Phase III (internal/phase3),
//     regularized Luby and the Section 4 slotted stages
//     (internal/avgenergy) run this way in production.
//   - BatchMachine, run with RunBatch: one automaton per protocol, driven
//     with whole awake sets per call over flat struct-of-arrays state.
//     The engine makes O(1) interface calls per round regardless of how
//     many nodes are awake, serves every inbox from pooled buffers, and —
//     with a warm Mem pool — reaches zero steady-state allocations per
//     round. The hot protocols (luby, phase1, ghaffari,
//     degreduce, shatter) execute this way.
//
// Both forms see the same semantics, delivery order and counters: for any
// protocol written both ways, Run and RunBatch produce byte-identical
// Results (enforced by the differential tests in the protocol packages).
// The engine itself is checked against runPerNode, an independent
// per-node round loop kept in this package's tests.
//
// The engine executes a run on the calling goroutine: compose, route, and
// deliver walk the sorted awake set in order, and nothing in the package
// starts a goroutine. Independent runs may execute concurrently, each on
// its own Mem. The router rejects a unicast to a node that is not the
// sender's neighbor, a message from a node that is not awake, and a
// sender whose messages come out of awake order: the run fails with an
// error, like a non-increasing wake round.
//
// # Cost per round
//
// A round does no map operation, no staging copy and no comparison sort,
// and walks its awake set once before ComposeAll (counting each node's
// awake round and setting its position) and once after DeliverAll
// (clearing the position and rescheduling the node). The wake calendar
// keeps the nodes that wake in the very next round, which in Luby and in
// Phase II's shattering are most of a round's awake set, in a lane:
// rescheduling compacts them in place, ascending, at the front of the
// awake buffer, and the next round starts from them. Round 0 starts from
// the lane too: the run's start puts the nodes InitAll wakes in round 0
// there, ascending, so they never pass through a bucket. Every other wake
// goes to a ring of calSize per-round buckets, threaded through a
// per-node link, or to a min-heap for wakes calSize or more rounds ahead
// that drains into the ring as the round advances. A round whose bucket
// is empty is its lane as it is, and so is a bucket filled in ascending
// order with the lane empty; a bucket that adds nodes to the lane, or
// that an insertion left out of order, is ordered with the lane through
// a bitmap over the round's span [lo, hi], in O(k + (hi-lo)/64) for k
// nodes.
//
// The outbox keeps a broadcast in 12 bytes, its sender and its A in two
// parallel arrays, and keeps its Kind, B and Bits once per run of
// consecutive broadcasts that share them: a one-bit protocol's round is
// one run. Unicasts are kept whole. The router pulls a one-bit round — no
// unicasts, at least half as many broadcasts as awake nodes, one
// broadcast per sender, and broadcasts in one header run that differ only
// in an A of 0 or 1 — and pushes every other round, rebuilding each
// broadcast's message from its run's header where it needs one. Neither
// writes a copy while routing. Pull stores one byte per sender in an
// n-byte array over node IDs, bit 0 marking the sender and bit 1 holding
// its A, and keeps the round's Kind, B and Bits once. Inboxes.At builds a
// receiver's inbox when DeliverAll asks for it, by walking the receiver's
// sorted neighbor row, loading one byte per neighbor, and writing, for
// each sending neighbor, the round's header with the neighbor's ID and A,
// with no data-dependent branch; Inboxes.Count walks the same row loading
// only the bytes and writes nothing. After DeliverAll the round zeroes the
// awake set's bytes, which cover every sender's. So a pulled round costs
// O(awake) to route and clear plus the rows of the inboxes read, with no
// term in n, and needs no O(m) buffer; the copies dropped are settled
// after DeliverAll, by counting the inboxes it never read. Push validates and accounts the
// outbox in one pass that counts each receiver's copies and those with a
// nonzero A, and does nothing more: Inboxes.Count reads its two numbers
// from the counts in O(1). The round's first Inboxes.At turns the counts
// into inbox offsets and then writes the copies, in a second pass over
// the outbox that stores each copy at its receiver's cursor in one
// pooled buffer; a pushed round that DeliverAll only counts lays out no
// inbox and writes no copy. The engine decides this from what DeliverAll
// reads, not from an option. Both routes give the same inboxes and
// counters. With a tracer attached, each round's wall time is split into
// compose, route, deliver and schedule stages (obs.RoundStats): compose
// includes the walk that sets positions and schedule the one that clears
// them, and a pulled round's inbox reads and a pushed round's offsets and
// copy pass fall in deliver.
package sim
