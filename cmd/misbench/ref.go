package main

import (
	"math"
	"time"
)

// The reference kernel measures the host's speed in the same process as
// the workload, interleaved with its ops, so every reported time can be
// scaled to a fixed nominal host (refScale). Shared hosts drift by ±10%
// over minutes and by 20–50% in busy periods (other tenants), which would
// otherwise swamp a 10% regression bound; a ratio measured within one run
// cancels most of it.
//
// The kernel is a fixed Luby MIS on a fixed random graph, written here
// rather than called from the program, so a change to the program can
// never move it: CSR neighbour scans, random priorities and scattered
// loads, the same mix as the simulator's rounds.
//
// refNominalNS is the kernel's median time on the 2-core host the
// benchmark was sized on.
const refNominalNS = 4.8e6

// refSensitivity is how much more the workloads slow than the kernel when
// the host slows. Over 150 runs on the sizing host (5 workloads × 30 seeds,
// in quiet and busy periods), their time grew as the kernel's time to a
// power of 1.1–1.35. Scaling by the kernel's time to the power 1 left the
// runs of a busy period up to 10% slow; to the power 1.2, every workload's
// seed-to-seed timing spread stayed within 3.2% on those runs and within
// 6.1% on 10 fresh seeds per workload.
const refSensitivity = 1.2

// refScale converts a time measured while the kernel took refNS into
// reference nanoseconds: measured × refScale(refNS).
func refScale(refNS float64) float64 {
	return math.Pow(refNominalNS/refNS, refSensitivity)
}

// refInterval is the wall time between two reference samples (≈9% of a
// run). At 100 ms, dyn-churn's same-seed spread was 4%; at 50 ms, 1.5%.
const refInterval = 50 * time.Millisecond

type refKernel struct {
	offs, adj []int32
	prio      []uint32
	state     []uint8 // 0 undecided, 1 covered, 2 joining, 3 member
	seed      uint64
}

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
}

// newRefKernel builds the fixed graph: 2^16 nodes, average degree 10.
func newRefKernel() *refKernel {
	const n, deg = 1 << 16, 10
	x := uint64(88172645463325252)
	nb := make([][]int32, n)
	for e := 0; e < n*deg/2; e++ {
		u, v := int32(xorshift(&x)%n), int32(xorshift(&x)%n)
		if u != v {
			nb[u] = append(nb[u], v)
			nb[v] = append(nb[v], u)
		}
	}
	k := &refKernel{offs: make([]int32, n+1), prio: make([]uint32, n), state: make([]uint8, n)}
	for v := range nb {
		k.adj = append(k.adj, nb[v]...)
		k.offs[v+1] = int32(len(k.adj))
	}
	return k
}

// run executes Luby rounds until every node is decided and returns the
// elapsed nanoseconds. Each call draws fresh priorities, so no run can be
// served from a cache the previous one warmed beyond the graph itself.
func (k *refKernel) run() int64 {
	start := time.Now()
	n := len(k.state)
	clear(k.state)
	k.seed++
	x := k.seed*0x9e3779b97f4a7c15 | 1
	for left := n; left > 0; {
		for v := range k.state {
			if k.state[v] == 0 {
				k.prio[v] = uint32(xorshift(&x))
			}
		}
		for v := range k.state {
			if k.state[v] != 0 {
				continue
			}
			win := true
			for _, u := range k.adj[k.offs[v]:k.offs[v+1]] {
				if k.state[u] == 0 && (k.prio[u] > k.prio[v] || (k.prio[u] == k.prio[v] && u > int32(v))) {
					win = false
					break
				}
			}
			if win {
				k.state[v] = 2
			}
		}
		for v := range k.state {
			if k.state[v] != 2 {
				continue
			}
			k.state[v] = 3
			left--
			for _, u := range k.adj[k.offs[v]:k.offs[v+1]] {
				if k.state[u] == 0 {
					k.state[u] = 1
					left--
				}
			}
		}
	}
	return since(start)
}
