// Package schedule implements the awake-schedule construction of
// Lemma 2.5 (Ghaffari & Portmann, PODC 2023), sometimes called a "virtual
// binary tree" [BM21a, AMP22].
//
// Given T rounds numbered 0..T-1, it assigns every round k a set S_k of
// rounds with |S_k| = O(log T) such that for any two rounds i <= j there is
// a round l with i <= l <= j and l ∈ S_i ∩ S_j. A node sampled at round r_v
// wakes exactly at the rounds of S_{r_v}; the intersection property
// guarantees that for every neighbor u with r_u <= r_v there is a common
// awake round in [r_u, r_v] where u can report whether it joined the MIS.
//
// Construction (divide and conquer, as in the paper's proof): the midpoint
// M of the current interval [L, H] is added to S_k for every k in [L, H],
// then both halves recurse. S_k is therefore the set of midpoints of the
// recursion intervals containing k, i.e. the binary-search path to k —
// which is computable for a single k in O(log T) without materializing the
// whole family. Set lists it in path order; AppendAscending writes it
// ascending, with no sort, for callers that build sorted wake schedules.
//
// A strictly stronger property holds and is relied on for correctness of
// the MIS phases: for i < j the separating midpoint l satisfies
// i <= l < j, so a node acting at round j learns the outcome of any node
// that acted strictly earlier *before* its own action round.
package schedule
