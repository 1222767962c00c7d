// Package core composes the phase implementations into the paper's
// algorithms:
//
//   - Algorithm 1 (Theorem 1.1): Phase I regularized Luby (phase1) →
//     Phase II shattering (shatter) → Phase III merging + finisher
//     (phase3, ModeAlg1). Time O(log² n), energy O(log log n).
//   - Algorithm 2 (Theorem 1.2): Phase I degree estimation (degreduce) →
//     Phase II → Phase III (phase3, ModeAlg2). Time
//     O(log n·log log n·log* n), energy O(log² log n).
//   - Luby's algorithm (the baseline the paper compares against).
//
// Each phase runs on the residual subgraph left by the previous one,
// through internal/pipeline, which maps per-phase energy back to original
// node IDs; a one-round all-awake synchronization is charged at each
// phase boundary (the paper's Phase II starts with every node awake,
// which plays the same role). Core opens one trace span per phase. A
// phase of one engine run is recorded by core; degree reduction and
// Section 4, made of several runs, get the pipeline and record each run
// as it ends.
package core
