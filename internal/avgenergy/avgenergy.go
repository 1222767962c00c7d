package avgenergy

import (
	"fmt"
	"math"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/phase1"
	"github.com/energymis/energymis/internal/pipeline"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// The constants of Phase I-II (Section 4.2). Stage A marks as Phase I
// does, with phase1's damping constant.
const (
	// Stage A: rounds per iteration = ⌈roundsAC·log₂ log₂ n⌉ + 2;
	// iterations run until the degree bound falls to degTarget(n).
	roundsAC = 3
	// degTargetC scales the stage-A degree target
	// max(minDegTarget, ⌈degTargetC·(log₂ log₂ n)²⌉).
	degTargetC   = 1
	minDegTarget = 8

	// Stage B: slots k = ⌈slotsC·log₂ log₂ n⌉ + 1; burst length =
	// ⌈burstC·log₂(degTarget+2)⌉ + 2 logical rounds.
	slotsC = 2
	burstC = 3
)

// degTarget returns the stage-A degree target for an n-node graph.
func degTarget(n int) int {
	ll := math.Log2(math.Max(2, math.Log2(math.Max(4, float64(n)))))
	t := int(math.Ceil(degTargetC * ll * ll))
	if t < minDegTarget {
		t = minDegTarget
	}
	return t
}

// Outcome of Phase I-II. The independent set and the nodes still
// undecided are the pipeline's.
type Outcome struct {
	Failed    int // stage-A nodes classified into F
	StageARes *sim.Result
	StageBRes *sim.Result
}

// Run executes Phase I-II on pl's residual (typically the one Phase I
// left, with poly(log n) maximum degree). It records each stage in pl as
// the stage ends: its joiners, the residual it leaves and its span,
// "phase-i/ii.a" or "phase-i/ii.b". Stage B leaves F and its own
// undecided nodes, minus any its joiners dominate, for Phases II/III.
func Run(pl *pipeline.Pipeline, cfg sim.Config) (*Outcome, error) {
	out := &Outcome{}
	sub := pl.Subgraph()
	g := sub.Graph
	n := g.N()
	if n == 0 {
		return out, nil
	}
	target := degTarget(n)
	loglog := math.Log2(math.Max(2, math.Log2(math.Max(4, float64(n)))))

	// --- Stage A: regularized Luby down to the poly(log log n) target ---
	maxDeg := g.MaxDegree()
	iters := 0
	if maxDeg > target {
		iters = int(math.Ceil(math.Log2(float64(maxDeg) / float64(target))))
	}
	rpi := int(math.Ceil(roundsAC*loglog)) + 2
	plan := phase1.PlanExplicit(iters, rpi, maxDeg)
	aOut, err := phase1.RunWithPlan(g, plan, cfg)
	if err != nil {
		return nil, fmt.Errorf("avgenergy stage A: %w", err)
	}
	out.StageARes = aOut.Res
	pl.Join(aOut.InSet, sub.Orig)
	pl.SetResidual(aOut.Residual, sub.Orig)
	pl.Record("phase-i/ii.a", aOut.Res, sub.Orig)

	// Boundary classification: residual nodes whose residual degree still
	// exceeds the target form the failed set F (deferred to later phases,
	// like the paper's F); the others, the A-nodes, run stage B.
	resSub := pl.Subgraph()
	var aNodes []int
	for i := 0; i < resSub.N(); i++ {
		if resSub.Degree(i) > target {
			out.Failed++
		} else {
			aNodes = append(aNodes, i)
		}
	}
	pl.SetResidual(aNodes, resSub.Orig)

	// --- Stage B: slot-scheduled Luby bursts on the A-nodes ---
	bSub := pl.Subgraph()
	k := int(math.Ceil(slotsC*loglog)) + 1
	burst := int(math.Ceil(burstC*math.Log2(float64(target+2)))) + 2
	bOut, err := runSlotted(bSub.Graph, k, burst, cfg)
	if err != nil {
		return nil, fmt.Errorf("avgenergy stage B: %w", err)
	}
	out.StageBRes = bOut.res
	pl.Join(bOut.inSet, bSub.Orig)
	// What stays: F and stage B's undecided nodes, minus any node that
	// stage B's joiners dominate.
	joined := make([]bool, resSub.N())
	for i, v := range resSub.Orig {
		joined[i] = pl.InSet()[v]
	}
	pl.SetResidual(verify.Residual(resSub.Graph, joined), resSub.Orig)
	pl.Record("phase-i/ii.b", bOut.res, bSub.Orig)
	return out, nil
}

// --- slot-scheduled Luby (Lemma 4.5 stand-in) ---

const (
	kindMark  = 71
	kindJoin  = 72
	kindInMIS = 73
)

type slotOutcome struct {
	inSet []bool
	res   *sim.Result
}

// slotMachine runs one Luby burst during its own slot window and listens
// for join announcements at the Lemma 2.5 schedule over slots.
type slotMachine struct {
	env   *sim.Env
	k     int
	burst int // logical rounds per window; each logical round = 3 engine rounds

	slot     int
	wake     []int
	wi       int
	joined   bool
	inactive bool
	marked   bool
	deg      int
}

var _ sim.Machine = (*slotMachine)(nil)

// windowLen returns engine rounds per slot window.
func (m *slotMachine) windowLen() int { return 3 * m.burst }

// Init implements sim.Machine.
func (m *slotMachine) Init(env *sim.Env) int {
	m.env = env
	m.deg = env.Degree
	m.slot = env.Rand.Intn(m.k)
	wl := m.windowLen()
	// The whole own window, and the announcement round (the last engine
	// round) of every other window in the schedule set S_slot, which
	// holds slot. Windows ascend with S_slot, so the wake list does too.
	var path [32]int32 // holds S_slot for any k below 2³¹
	sched := schedule.AppendAscending(path[:0], m.k, m.slot)
	m.wake = make([]int, 0, len(sched)-1+wl)
	for _, l := range sched {
		if int(l) != m.slot {
			m.wake = append(m.wake, int(l)*wl+wl-1)
			continue
		}
		for r := 0; r < wl; r++ {
			m.wake = append(m.wake, m.slot*wl+r)
		}
	}
	return m.wake[0]
}

// Compose implements sim.Machine.
func (m *slotMachine) Compose(round int, out *sim.Outbox) {
	wl := m.windowLen()
	w, o := round/wl, round%wl
	if o == wl-1 {
		// Announcement sub-round shared across windows.
		if m.joined {
			out.Broadcast(sim.Msg{Kind: kindInMIS, Bits: 1})
		}
		return
	}
	if w != m.slot || m.inactive || m.joined {
		return
	}
	switch o % 3 {
	case 0:
		// Marking targets the expected cohort degree deg/k, so cohort
		// contention matches classic Luby's 1/(2 deg) regime.
		p := 1.0
		if m.deg > 0 {
			p = math.Min(0.5, float64(m.k)/(2*float64(m.deg)))
		}
		m.marked = m.env.Rand.Bernoulli(p)
		if m.marked {
			out.Broadcast(sim.Msg{Kind: kindMark, A: uint64(m.deg), Bits: int32(bits(m.env.N))})
		}
	case 1:
		if m.marked {
			m.joined = true
			out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
		}
	}
}

// Deliver implements sim.Machine.
func (m *slotMachine) Deliver(round int, inbox []sim.Msg) int {
	wl := m.windowLen()
	w, o := round/wl, round%wl
	switch {
	case o == wl-1:
		if !m.joined && w < m.slot {
			for _, msg := range inbox {
				if msg.Kind == kindInMIS {
					m.inactive = true
				}
			}
		}
	case w == m.slot && o%3 == 0:
		if m.marked {
			for _, msg := range inbox {
				if msg.Kind != kindMark {
					continue
				}
				d := int(msg.A)
				if d > m.deg || (d == m.deg && msg.From > int32(m.env.Node)) {
					m.marked = false
					break
				}
			}
		}
	case w == m.slot && o%3 == 1:
		for _, msg := range inbox {
			if msg.Kind == kindJoin && !m.joined {
				m.inactive = true
			}
		}
		m.marked = false
	}
	if m.inactive {
		// Dominated: nothing left to send or learn.
		return sim.Never
	}
	m.wi++
	if m.joined {
		// Only announcement rounds remain relevant.
		for m.wi < len(m.wake) && m.wake[m.wi]%wl != wl-1 {
			m.wi++
		}
	}
	if m.wi >= len(m.wake) {
		return sim.Never
	}
	return m.wake[m.wi]
}

func bits(n int) int {
	b := 1
	for p := 1; p < n; p <<= 1 {
		b++
	}
	return b
}

func runSlotted(g *graph.Graph, k, burst int, cfg sim.Config) (*slotOutcome, error) {
	machines := make([]sim.Machine, g.N())
	nodes := make([]*slotMachine, g.N())
	for v := range machines {
		nodes[v] = &slotMachine{k: k, burst: burst}
		machines[v] = nodes[v]
	}
	slotCfg := cfg
	slotCfg.Seed = cfg.Seed ^ 0xA5A5A5A5
	res, err := sim.Run(g, machines, slotCfg)
	if err != nil {
		return nil, err
	}
	out := &slotOutcome{inSet: make([]bool, g.N()), res: res}
	for v, nm := range nodes {
		out.inSet[v] = nm.joined
	}
	return out, nil
}
