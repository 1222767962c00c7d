// Package degreduce implements Phase I of Algorithm 2 (Section 3.1,
// Lemmas 3.1–3.10): a degree-reduction from Δ to Δ^0.7 per iteration, with
// every iteration costing O(log n) rounds and O(log log n) awake rounds.
//
// One iteration works on a graph with known degree bound Δ:
//
//   - Sampling of type (A): per logical round, each node flips heads with
//     probability Δ^{-1/2}; the first heads *tags* the node in that round.
//     Tagged nodes are used by their neighbors to estimate remaining
//     degrees: a node that sees A_v tagged neighbors in its round
//     estimates deg~(v) = Δ^{1/2}·A_v.
//   - Sampling of type (B): the same process with probability 1/(2Δ^0.6);
//     the first heads *pre-marks* the node.
//   - A node participates only in the first round r_v in which either
//     sampling fires (it may be both tagged and pre-marked in that round);
//     afterwards it is "spoiled" and never acts again this iteration.
//   - A pre-marked node re-samples itself as *marked* with probability
//     min{1, 2Δ^0.6/(5·deg~(v))}, so the effective marking probability is
//     min{1/(2Δ^0.6), 1/(5·deg~(v))}. Marked nodes exchange their
//     estimates; a marked node unmarks when some marked neighbor has an
//     estimate at least as large as its own. Survivors join the MIS.
//   - Wake schedule: exactly as in Phase I of Algorithm 1, with a fourth
//     sub-round per logical round in which MIS joiners announce themselves
//     at the rounds of the Lemma 2.5 schedule S_{r_v}.
//   - End of iteration: every node still alive wakes for a 4-round window:
//     joiners announce; active non-spoiled nodes are counted; active nodes
//     with more than 4Δ^0.6 active non-spoiled neighbors and no such
//     neighbor join the MIS (Corollary 3.9 shows these high-degree nodes
//     form an independent set w.h.p.).
//
// Corollary 3.2: iterating with Δ ← Δ^0.7 until Δ is polylogarithmic
// reduces the maximum residual degree to the shattering regime in
// O(log log Δ) iterations. Run takes the composed run's pipeline and
// records each iteration in it as the iteration ends (its joiners, the
// residual it leaves, and its span "phase-i.<k>"); the next iteration
// runs on the pipeline's residual subgraph.
package degreduce
