package stats

import (
	"fmt"
	"sort"
	"strings"

	"github.com/energymis/energymis/internal/sim"
)

// Phase is the recorded contribution of one engine run.
type Phase struct {
	Name        string
	Rounds      int
	MaxAwake    int
	AvgAwake    float64 // averaged over the *original* node count
	MsgsSent    int64
	MsgsDropped int64
	BitsTotal   int64
	BitsMax     int
	Violations  int64
	Retries     int // times the phase had to re-run a failing stage
}

// Accumulator sums phase results over a fixed original node set.
type Accumulator struct {
	n      int
	awake  []int64
	phases []Phase
}

// NewAccumulator returns an accumulator for an n-node network.
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{n: n, awake: make([]int64, n)}
}

// AddPhase records one engine result. origIDs[i] is the original node index
// of the phase-local node i; pass nil when the phase ran on the full graph
// with identity IDs.
func (a *Accumulator) AddPhase(name string, res *sim.Result, origIDs []int32) {
	var sum int64
	for local, cnt := range res.Awake {
		orig := local
		if origIDs != nil {
			orig = int(origIDs[local])
		}
		a.awake[orig] += int64(cnt)
		sum += int64(cnt)
	}
	a.phases = append(a.phases, Phase{
		Name:        name,
		Rounds:      res.Rounds,
		MaxAwake:    res.MaxAwake(),
		AvgAwake:    a.perNode(float64(sum)),
		MsgsSent:    res.MsgsSent,
		MsgsDropped: res.MsgsDropped,
		BitsTotal:   res.BitsTotal,
		BitsMax:     res.BitsMax,
		Violations:  res.Violations,
	})
}

// AddFlat charges a fixed number of awake rounds to an explicit node set,
// used for phase-boundary synchronization rounds that are not part of any
// engine run (e.g. "all surviving nodes wake once to learn their status").
func (a *Accumulator) AddFlat(name string, rounds int, nodes []int32) {
	for _, v := range nodes {
		a.awake[v] += int64(rounds)
	}
	a.phases = append(a.phases, Phase{
		Name:     name,
		Rounds:   rounds,
		MaxAwake: rounds,
		AvgAwake: a.perNode(float64(rounds) * float64(len(nodes))),
	})
}

// perNode averages a total over the original node count; it is 0 on the
// empty network instead of NaN.
func (a *Accumulator) perNode(total float64) float64 {
	if a.n == 0 {
		return 0
	}
	return total / float64(a.n)
}

// NoteRetries annotates the most recent phase with a retry count.
func (a *Accumulator) NoteRetries(k int) {
	if len(a.phases) > 0 {
		a.phases[len(a.phases)-1].Retries += k
	}
}

// Phases returns the recorded phases in order.
func (a *Accumulator) Phases() []Phase { return a.phases }

// Summary holds the composed complexity measures.
type Summary struct {
	N           int
	Rounds      int     // time complexity: sum of phase rounds
	MaxAwake    int     // energy complexity: max over nodes of total awake rounds
	AvgAwake    float64 // node-averaged energy
	P99Awake    int     // 99th-percentile awake rounds
	AwakeTotal  int64   // total awake node-rounds (the benchmark denominator)
	MsgsSent    int64
	MsgsDropped int64
	BitsTotal   int64
	BitsMax     int
	Violations  int64
	Retries     int
	Phases      []Phase
}

// Summarize computes the composed summary.
func (a *Accumulator) Summarize() Summary {
	s := Summary{N: a.n, Phases: a.phases}
	var sum int64
	sorted := make([]int64, a.n)
	copy(sorted, a.awake)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, c := range a.awake {
		sum += c
	}
	s.AwakeTotal = sum
	if a.n > 0 {
		s.MaxAwake = int(sorted[a.n-1])
		s.AvgAwake = float64(sum) / float64(a.n)
		s.P99Awake = int(sorted[(a.n-1)*99/100])
	}
	for _, p := range a.phases {
		s.Rounds += p.Rounds
		s.MsgsSent += p.MsgsSent
		s.MsgsDropped += p.MsgsDropped
		s.BitsTotal += p.BitsTotal
		s.Violations += p.Violations
		s.Retries += p.Retries
		if p.BitsMax > s.BitsMax {
			s.BitsMax = p.BitsMax
		}
	}
	return s
}

// AwakePerNode returns a copy of the per-node composed awake counts.
func (a *Accumulator) AwakePerNode() []int64 {
	out := make([]int64, a.n)
	copy(out, a.awake)
	return out
}

// String renders a compact human-readable report.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d rounds=%d maxAwake=%d avgAwake=%.2f p99Awake=%d msgs=%d bitsMax=%d",
		s.N, s.Rounds, s.MaxAwake, s.AvgAwake, s.P99Awake, s.MsgsSent, s.BitsMax)
	if s.Violations > 0 {
		fmt.Fprintf(&b, " CONGEST-VIOLATIONS=%d", s.Violations)
	}
	if s.Retries > 0 {
		fmt.Fprintf(&b, " retries=%d", s.Retries)
	}
	for _, p := range s.Phases {
		fmt.Fprintf(&b, "\n  %-14s rounds=%-7d maxAwake=%-5d avgAwake=%-8.2f msgs=%d",
			p.Name, p.Rounds, p.MaxAwake, p.AvgAwake, p.MsgsSent)
	}
	return b.String()
}
