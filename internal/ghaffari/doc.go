// Package ghaffari implements the desire-level MIS dynamics of Ghaffari
// [Gha16], in the 1-bit-message form of [Gha19] that the paper invokes in
// Lemma 2.6 (shattering) and Lemma 2.7 (parallel executions on small
// components).
//
// Every undecided node keeps a desire level p(v), initially 1/2. Per
// logical round, v marks itself with probability p(v) and announces the
// mark with a single bit; v joins the MIS when it is marked and no
// neighbor is marked. The desire level halves when some neighbor was
// marked this round and otherwise doubles, within [2⁻²⁰, 1/2] (one
// rule, nextDesire, for both forms below) — the 1-bit feedback variant of
// the effective-degree rule, so that a full execution costs one bit per
// round per edge and K independent executions can be packed into K-bit
// CONGEST messages (used by Lemma 2.7).
//
// The guarantee used by the paper: after O(log deg + log 1/eps) rounds a
// node is undecided with probability at most eps; running Θ(log Δ) rounds
// on the whole graph therefore shatters it into small components, and
// running Θ(log log n) rounds with K = Θ(log n) executions on a
// poly(log n)-size component leaves at least one execution that decided
// every node, with high probability.
//
// The package has one production form per use. RunShatter runs a single
// execution on the whole graph as Batch, a struct-of-arrays automaton on
// the batch runtime (Phase II, and the dynamic engine's Ghaffari
// repair). Its node state is one byte: three flags and the exponent k of
// the level 2⁻ᵏ, 1 ≤ k ≤ 20, which a round moves by a branch-free min and
// max. A node marks when the top k bits of its next draw are zero, which
// is Bernoulli(2⁻ᵏ) on that draw, outcome for outcome, and the move on k
// is nextDesire's on 2⁻ᵏ; TestDesireExponentMatchesFloat holds both at
// every k, the floor included, which no differential input reaches.
// Proto holds up to MaxK = 64 executions of one node, one bit each of a
// uint64, which Phase III's finisher holds by value in its per-node
// machines and resets per attempt; its default K = 2⌈log₂(n+2)⌉ never
// exceeds 64 for an int32 node count. The per-node Machine in this
// package's tests is the specification both follow: at K = 1 the
// differential tests and FuzzRunShatterMatchesPerNode hold RunShatter to
// it bit for bit, and at larger K it drives Proto on its own.
package ghaffari
