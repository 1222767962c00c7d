// Package phase3 implements Phase III of both algorithms: the
// deterministic, energy-efficient Borůvka-style cluster merging of
// Lemma 2.8 and the parallel-executions MIS finisher of Lemma 2.7.
//
// The phase runs on the shattered residual graph, whose connected
// components have poly(log n) size. All components execute the same global
// timetable in parallel. The timetable is static: every node can compute,
// from public parameters only, the engine round of every stage, and wakes
// only at the stages its current role requires (everything else is spent
// asleep), which is how the phase reaches O(1) awake rounds per merge
// iteration.
//
// One merge iteration consists of:
//
//	X0   every node exchanges its cluster ID with its neighbors;
//	CC1  convergecast: minimum (neighbor cluster ID, edge ID) → root;
//	BC1  broadcast: the cluster's chosen outgoing edge;
//	X1   the chosen edge is announced across; mutual choices form M edges;
//	CC2  convergecast: indegree count and M status;
//	BC2  broadcast: high/low indegree verdict, M partner;
//	X2a  every node announces its cluster's (high, M) status;
//	X2b  boundary nodes of high clusters send EH-accepts to in-neighbors;
//	CV   color reduction on the out-forest H_L: LR rounds, each
//	     broadcast(color) + cross-edge exchange + convergecast;
//	     (the paper invokes Linial's reduction; on a forest with known
//	     out-orientation the Cole–Vishkin step gives the same
//	     O(log log n)-colors-in-2-rounds / O(1)-colors-in-log*-rounds
//	     trade-off with identical class counts)
//	CL   class loop: for each color c, availability exchange, a proposal
//	     convergecast + decision broadcast inside clusters of color c, and
//	     an accept exchange — the maximal matching M_L of the paper;
//	CC3  convergecast: leaf roles (EH/ML) discovered at boundary nodes;
//	BC3  broadcast: the cluster's merge role and merge-edge status;
//	XR   merge-edge status exchange (for the R-edge rule);
//	XR2  R-attach requests;
//	MG   four merge sub-stages (M, EH, ML, R), each: a depth handshake
//	     across the merge edge, then a convergecast + broadcast in the leaf
//	     cluster that re-roots it at the attachment point (the "one
//	     convergecast + one broadcast re-rooting" of the paper).
//
// After Iters iterations every component is a single cluster with a rooted
// spanning tree; the finisher then runs K ≤ 64 executions of the
// [Gha16/Gha19] dynamics packed into one word (ghaffari.Proto), so every
// mark, join and success vector is one K-bit message. It AND-convergecasts
// the per-execution success bits and broadcasts the index of the lowest
// fully successful execution (Lemma 2.7), retrying with fresh randomness
// if none succeeded.
package phase3
