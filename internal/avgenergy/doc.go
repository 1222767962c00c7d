// Package avgenergy implements the Section 4 extension: reducing the
// node-averaged energy complexity to O(1) while preserving the worst-case
// energy and round bounds of Algorithms 1 and 2.
//
// Structure (Section 4.2, Lemma 4.1): after Phase I (whose averaged energy
// is already O(1), Section 4.1), an intermediate "Phase I-II" removes all
// but O(n/log² log n) nodes, so that running the O(log² log n)-energy
// Phases II and III on the remainder adds only O(1) per node on average.
// Phase I-II has two stages:
//
//   - Stage A (Lemma 4.2): the regularized-Luby degree reduction of
//     Section 2.1 re-run with Θ(log log n) rounds per iteration and a
//     poly(log log n) degree target. Nodes that would violate the
//     degree invariants join a failed set F with probability 1/poly(log n)
//     each; F is deferred to Phases II/III. In this implementation F is
//     classified at the phase-boundary synchronization round (each node
//     counts its active neighbors once, one awake round — O(1) average),
//     rather than by the paper's per-iteration three-round all-awake
//     check — a documented substitution with the same asymptotics.
//   - Stage B (stand-in for Lemma 4.5 [GP22]): every still-active node
//     draws one of k slots and runs a short Luby burst only during its
//     slot's window, learning earlier joins at the Lemma 2.5 schedule
//     rounds over windows. This delivers Lemma 4.5's interface guarantee —
//     all but a small fraction of nodes removed, in O(k·log d) rounds —
//     with O(log d + log k) awake rounds per participant instead of
//     [GP22]'s O(1) average (their machinery is out of scope; the
//     end-to-end node-averaged energy remains flat, which
//     core.TestAverageEnergyVariants asserts).
//
// Run takes the composed run's pipeline, runs on its residual, and
// records each stage in it as the stage ends: stage A as "phase-i/ii.a"
// with the residual it leaves, then stage B, on the pipeline's residual
// less F, as "phase-i/ii.b" with F and stage B's undecided nodes, minus
// any stage B's joiners dominate.
package avgenergy
