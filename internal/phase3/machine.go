package phase3

import (
	"sort"

	"github.com/energymis/energymis/internal/bitvec"
	"github.com/energymis/energymis/internal/cluster"
	"github.com/energymis/energymis/internal/ghaffari"
	"github.com/energymis/energymis/internal/sim"
)

// Message kinds.
const (
	kCid      = 41 // A = sender's cluster ID
	kCC1      = 42 // A = best foreign cid + 1 (0 none), B = edge
	kBC1      = 43 // A = 1 if an edge was chosen, B = edge
	kChosen   = 44 // A = sender's cluster ID (sent across the chosen edge)
	kCC2      = 45 // A = indegree count, B = M flags
	kBC2      = 46 // A = flags (high, M), B = M partner cid + 1
	kStatus   = 47 // A = flags (high, M)
	kEHAccept = 48
	kCVx      = 49 // A = target cluster's current color (v -> u)
	kCVcc     = 50 // A = out-target color + 1 (0 none)
	kCVbc     = 51 // A = new color
	kAvail    = 52
	kCCa      = 53 // A = min proposal edge, B = matched bit
	kBCa      = 54 // A = chosen in-edge (noEdge none), B = matched bit
	kAccept   = 55
	kCC3      = 56 // A = role bits (ehLeaf | mlLeaf<<1)
	kBC3      = 57 // A = leafStage(0..4) | hasMergeEdge<<3
	kXR       = 58 // A = hasMergeEdge bit
	kRAttach  = 59
	kXm       = 60 // A = sender depth, B = sender cid
	kCCm      = 61 // A = hasV | dv<<1 | newBase<<21, B = new cid
	kBCm      = 62 // A = dv | dist<<16 | newBase<<32, B = new cid
	kFCheck   = 63 // A = cid
	kCCb      = 64 // A = broken bit
	kBCb      = 65 // A = broken bit
	kMarks    = 66
	kJoins    = 67
	kCCf      = 68 // A,B = AND-ed success bits
	kBCf      = 69 // A = found<<32 | exec index
)

const (
	noEdge  = ^uint64(0)
	noStage = 4
)

// indegreeThresh is Lemma 2.8's high-indegree cutoff: a cluster with at
// least this many in-edges is high. The paper uses 10.
const indegreeThresh = 10

func packEdge(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func edgeEnds(e uint64) (int32, int32) {
	return int32(e >> 32), int32(uint32(e))
}

// Machine is the per-node Phase III automaton.
type Machine struct {
	env  *sim.Env
	tt   *Timetable
	tree cluster.Tree

	wake wakeSet

	iterState

	nbrCid    []int32 // per-neighbor cluster ID, from the last X0 it attended
	nbrStatus []uint8 // per-neighbor cluster status bits from X2a
	idb       int32   // bits per node identifier = ceil(log2 N)

	// Finisher state. proto is reset per attempt over levels, the node's
	// K-element window of one per-run array (newMachines).
	proto        ghaffari.Proto
	levels       []float64
	brokenLocal  bool
	broken       bool
	attempts     int
	pendingJoins uint64 // join vector carried from mark to join sub-round
	ccf          uint64 // AND of the success vectors heard from the subtree
	bcfPayload   uint64
	InMIS        bool
	decided      bool
}

// iterState is the per-iteration scratch of a node, replaced whole at X0
// by resetIteration.
type iterState struct {
	active         bool
	candCid        int32
	candEdge       uint64
	chosenEdge     uint64
	amOutB         bool
	outNbr         int32
	inEdges        []int32 // foreign endpoints of the in-edges this node anchors
	mPartner       int32   // M-edge neighbor, -1 when none (boundary node only)
	cc2Cnt         int
	cc2M           bool
	cc2MCid        int32
	isHigh         bool
	hasM           bool
	hasIn          bool // the cluster received at least one in-edge
	mPartnerCid    int32
	targetHigh     bool
	targetM        bool
	ehLeaf         bool // our out-edge was accepted by a high cluster (boundary only)
	mlLeaf         bool // our out-edge was ML-accepted (boundary only)
	color          int32
	targetColor    int32
	cvUp           int64 // scratch: out-target color + 1, 0 = none
	ccaEdge        uint64
	ccaMatched     bool
	clusterMatched bool
	acceptEdge     uint64 // in-edge chosen by our root this window
	leafStage      int
	hasMerge       bool
	targetMerge    bool
	rIn            []int32 // neighbors that R-attached to us
	mlAccepted     []int32 // neighbors whose ML proposal we accepted (v side)
	cc3Agg         uint64  // role bits aggregated from children

	// Re-rooting scratch (leaf clusters during a merge sub-stage). The
	// pend* fields are read only while pendSet is true.
	reParent  int32
	reBase    int32
	reCid     int32
	hasV      bool
	vIsSelf   bool
	vChild    int32
	vDepth    int32
	bcmDist   int32
	bcmGot    bool
	pendDepth int32
	pendPar   int32
	pendCid   int32
	pendSet   bool
}

var _ sim.Machine = (*Machine)(nil)

// Decided reports whether the node has a final MIS answer.
func (m *Machine) Decided() bool { return m.decided }

// Broken reports whether the node's component failed to merge.
func (m *Machine) Broken() bool { return m.broken }

// Depth returns the node's final tree depth (diameter diagnostics).
func (m *Machine) Depth() int { return int(m.tree.Depth) }

// AttemptsUsed returns the number of finisher attempts the node ran.
func (m *Machine) AttemptsUsed() int { return m.attempts }

// wakeSet is a small sorted set of future wake rounds: rounds[idx:] are
// pending, rounds[:idx] have passed.
type wakeSet struct {
	rounds []int
	idx    int
}

// wakeCap is the capacity Run gives each node's wake set, all nodes' in
// one array. add drops the passed rounds before it grows a set, so a set
// outgrows it only with more pending rounds: a node had at most 14 in
// Algorithm 1 runs on GNP(32768, 10/n), and 31 on TestOutcomesPinned's
// inputs.
const wakeCap = 16

func (w *wakeSet) add(r int) {
	if len(w.rounds) == cap(w.rounds) && w.idx > 0 {
		w.rounds = w.rounds[:copy(w.rounds, w.rounds[w.idx:])]
		w.idx = 0
	}
	i := sort.SearchInts(w.rounds[w.idx:], r) + w.idx
	if i < len(w.rounds) && w.rounds[i] == r {
		return
	}
	w.rounds = append(w.rounds, 0)
	copy(w.rounds[i+1:], w.rounds[i:])
	w.rounds[i] = r
}

// next returns the first wake round strictly after r, or sim.Never.
func (w *wakeSet) next(r int) int {
	for w.idx < len(w.rounds) && w.rounds[w.idx] <= r {
		w.idx++
	}
	if w.idx >= len(w.rounds) {
		return sim.Never
	}
	return w.rounds[w.idx]
}

// addOp schedules the awake rounds of a tree operation window starting at
// base (absolute round), given the node's current depth.
func (m *Machine) addOp(op cluster.OpKind, base int) {
	rounds, k := cluster.AwakeRounds(op, int(m.tree.Depth), m.tt.D)
	for _, r := range rounds[:k] {
		m.wake.add(base + r)
	}
}

// Init implements sim.Machine.
func (m *Machine) Init(env *sim.Env) int {
	m.env = env
	m.tree = cluster.Singleton(int32(env.Node))
	m.nbrCid = make([]int32, env.Degree)
	m.resetIteration()
	m.idb = int32(bitvec.BitsForRange(env.N))
	if m.tt.Iters > 0 {
		m.wake.add(m.tt.iterBase(0) + m.tt.layout.x0)
	}
	m.wake.add(m.tt.finCheck)
	return m.wake.next(-1)
}

// resetIteration starts the iteration's scratch afresh, keeping the
// capacity of its slices.
func (m *Machine) resetIteration() {
	m.iterState = iterState{
		candCid:     -1,
		candEdge:    noEdge,
		chosenEdge:  noEdge,
		outNbr:      -1,
		inEdges:     m.inEdges[:0],
		mPartner:    -1,
		cc2MCid:     -1,
		mPartnerCid: -1,
		color:       -1,
		targetColor: -1,
		ccaEdge:     noEdge,
		acceptEdge:  noEdge,
		leafStage:   noStage,
		rIn:         m.rIn[:0],
		mlAccepted:  m.mlAccepted[:0],
		vChild:      -1,
		vDepth:      -1,
		reParent:    -1,
		reBase:      -1,
		reCid:       -1,
	}
}

// participant reports whether the cluster takes part in coloring/matching.
func (m *Machine) participant() bool { return m.active && !m.isHigh && !m.hasM }

// Compose implements sim.Machine.
func (m *Machine) Compose(round int, out *sim.Outbox) {
	if round >= m.tt.finCheck {
		m.composeFinisher(round, out)
		return
	}
	i := round / m.tt.layout.length
	off := round - m.tt.iterBase(i)
	l := &m.tt.layout
	d := int(m.tree.Depth)

	switch {
	case off == l.x0:
		out.Broadcast(sim.Msg{Kind: kCid, A: uint64(uint32(m.tree.CID)), Bits: m.idb})

	case off >= l.cc1 && off < l.cc1+l.d:
		if off-l.cc1 == cluster.ConvergecastSendRound(d, m.tt.D) && !m.tree.IsRoot() {
			a := uint64(0)
			if m.candCid >= 0 {
				a = uint64(uint32(m.candCid)) + 1
			}
			out.Send(m.tree.Parent, sim.Msg{Kind: kCC1, A: a, B: m.candEdge, Bits: 3*m.idb + 1})
		}

	case off >= l.bc1 && off < l.bc1+l.d:
		if off-l.bc1 == cluster.BroadcastSendRound(d) {
			if m.tree.IsRoot() {
				m.applyBC1(m.candCid, m.candEdge)
			}
			flag := uint64(0)
			if m.chosenEdge != noEdge {
				flag = 1
			}
			out.Broadcast(sim.Msg{Kind: kBC1, A: flag, B: m.chosenEdge, Bits: 1 + 2*m.idb})
		}

	case off == l.x1:
		if m.amOutB {
			out.Send(m.outNbr, sim.Msg{Kind: kChosen, A: uint64(uint32(m.tree.CID)), Bits: m.idb})
		}

	case off >= l.cc2 && off < l.cc2+l.d:
		if off-l.cc2 == cluster.ConvergecastSendRound(d, m.tt.D) && !m.tree.IsRoot() {
			cnt := m.cc2Cnt + len(m.inEdges)
			b := uint64(0)
			if m.cc2M || m.mPartner >= 0 {
				mcid := m.cc2MCid
				if m.mPartner >= 0 {
					mcid = m.mPartnerCid
				}
				b = 1<<32 | uint64(uint32(mcid))
			}
			out.Send(m.tree.Parent, sim.Msg{Kind: kCC2, A: uint64(cnt), B: b, Bits: 2*m.idb + 1})
		}

	case off >= l.bc2 && off < l.bc2+l.d:
		if off-l.bc2 == cluster.BroadcastSendRound(d) {
			if m.tree.IsRoot() {
				cnt := m.cc2Cnt + len(m.inEdges)
				m.isHigh = cnt >= indegreeThresh
				m.hasIn = cnt > 0
				if m.cc2M || m.mPartner >= 0 {
					m.hasM = true
					if m.mPartner < 0 {
						m.mPartnerCid = m.cc2MCid
					}
				}
			}
			var a uint64
			if m.isHigh {
				a |= 1
			}
			if m.hasM {
				a |= 2
			}
			if m.hasIn {
				a |= 4
			}
			out.Broadcast(sim.Msg{Kind: kBC2, A: a, B: uint64(uint32(m.mPartnerCid)) + 1, Bits: 3 + m.idb})
		}

	case off == l.x2a:
		var a uint64
		if m.isHigh {
			a |= 1
		}
		if m.hasM {
			a |= 2
		}
		out.Broadcast(sim.Msg{Kind: kStatus, A: a, Bits: 2})

	case off == l.x2b:
		if m.isHigh {
			for _, nbr := range m.inEdges {
				// A high cluster removes its own outgoing edge from H, so
				// in-edges whose source is itself high (or M-matched) are
				// gone and must not be accepted.
				if m.nbrStatusOf(nbr)&3 == 0 {
					out.Send(nbr, sim.Msg{Kind: kEHAccept, Bits: 1})
				}
			}
		}

	default:
		m.composeLate(off, out)
	}
}

// composeLate handles the CV, class-loop, role, and merge stages.
func (m *Machine) composeLate(off int, out *sim.Outbox) {
	l := &m.tt.layout
	d := int(m.tree.Depth)

	// Color-reduction blocks: X, CC, BC per round.
	if off >= l.cvBase && off < l.clBase {
		rel := off - l.cvBase
		blockLen := 2*l.d + 1
		if rel == m.tt.LR*blockLen { // final color exchange round
			m.sendColorToSources(out)
			return
		}
		r := rel / blockLen
		o := rel % blockLen
		if r >= m.tt.LR {
			return
		}
		switch {
		case o == 0: // X: v sends cluster color to participant in-edge sources
			m.sendColorToSources(out)
		case o >= 1 && o < 1+l.d: // CC: out-target color up
			if o-1 == cluster.ConvergecastSendRound(d, m.tt.D) && !m.tree.IsRoot() {
				out.Send(m.tree.Parent, sim.Msg{Kind: kCVcc, A: uint64(m.cvUp), Bits: m.idb})
			}
		default: // BC: new color down
			if o-1-l.d == cluster.BroadcastSendRound(d) {
				if m.tree.IsRoot() {
					parent := int64(m.cvUp) - 1
					m.color = cvStep(m.color, int32(parent))
					m.cvUp = 0
				}
				out.Broadcast(sim.Msg{Kind: kCVbc, A: uint64(uint32(m.color)), Bits: m.idb})
			}
		}
		return
	}

	// Class loop.
	if off >= l.clBase && off < l.cc3 {
		rel := off - l.clBase
		blockLen := 2*l.d + 2
		c := rel / blockLen
		o := rel % blockLen
		switch {
		case o == 0: // Xa: availability proposals toward color-c targets
			if m.amOutB && m.participant() && !m.targetHigh && !m.targetM &&
				int(m.targetColor) == c && !m.clusterMatched && !m.mlLeaf && !m.ehLeaf {
				out.Send(m.outNbr, sim.Msg{Kind: kAvail, Bits: 1})
			}
		case o >= 1 && o < 1+l.d: // CCa (clusters of color c)
			if int(m.color) == c && m.participant() &&
				o-1 == cluster.ConvergecastSendRound(d, m.tt.D) && !m.tree.IsRoot() {
				b := uint64(0)
				if m.ccaMatched || m.mlLeaf {
					b = 1
				}
				out.Send(m.tree.Parent, sim.Msg{Kind: kCCa, A: m.ccaEdge, B: b, Bits: 2*m.idb + 1})
			}
		case o >= 1+l.d && o < 1+2*l.d: // BCa
			if int(m.color) == c && m.participant() &&
				o-1-l.d == cluster.BroadcastSendRound(d) {
				if m.tree.IsRoot() {
					matched := m.ccaMatched || m.mlLeaf
					chosen := noEdge
					if !matched && m.ccaEdge != noEdge {
						chosen = m.ccaEdge
						matched = true
					}
					m.acceptEdge = chosen
					m.clusterMatched = matched
				}
				b := uint64(0)
				if m.clusterMatched {
					b = 1
				}
				out.Broadcast(sim.Msg{Kind: kBCa, A: m.acceptEdge, B: b, Bits: 2*m.idb + 1})
			}
		default: // Xb: accept the chosen proposal
			if int(m.color) == c && m.acceptEdge != noEdge {
				a, b := edgeEnds(m.acceptEdge)
				self := int32(m.env.Node)
				if a == self || b == self {
					to := a
					if a == self {
						to = b
					}
					m.mlAccepted = append(m.mlAccepted, to)
					out.Send(to, sim.Msg{Kind: kAccept, Bits: 1})
				}
			}
		}
		return
	}

	// CC3: leaf-role bits up.
	if off >= l.cc3 && off < l.cc3+l.d {
		if off-l.cc3 == cluster.ConvergecastSendRound(d, m.tt.D) && !m.tree.IsRoot() {
			var a uint64
			if m.ehLeaf {
				a |= 1
			}
			if m.mlLeaf {
				a |= 2
			}
			out.Send(m.tree.Parent, sim.Msg{Kind: kCC3, A: a | m.cc3Agg, Bits: 2})
		}
		return
	}

	// BC3: cluster role down.
	if off >= l.bc3 && off < l.bc3+l.d {
		if off-l.bc3 == cluster.BroadcastSendRound(d) {
			if m.tree.IsRoot() {
				m.decideRole()
			}
			a := uint64(m.leafStage)
			if m.hasMerge {
				a |= 1 << 3
			}
			out.Broadcast(sim.Msg{Kind: kBC3, A: a, Bits: 4})
		}
		return
	}

	if off == l.xr {
		a := uint64(0)
		if m.hasMerge {
			a = 1
		}
		out.Broadcast(sim.Msg{Kind: kXR, A: a, Bits: 1})
		return
	}

	if off == l.xr2 {
		if m.leafStage == 3 && m.amOutB && m.targetMerge {
			out.Send(m.outNbr, sim.Msg{Kind: kRAttach, Bits: 1})
		}
		return
	}

	// Merge sub-stages.
	if off >= l.mgBase && off < l.length {
		rel := off - l.mgBase
		blockLen := 2*l.d + 1
		s := rel / blockLen
		o := rel % blockLen
		switch {
		case o == 0: // Xm: center-side depth handshake
			for _, nbr := range m.centerPeers(s) {
				out.Send(nbr, sim.Msg{
					Kind: kXm,
					A:    uint64(m.tree.Depth),
					B:    uint64(uint32(m.tree.CID)),
					Bits: 2 * m.idb,
				})
			}
		case o >= 1 && o < 1+l.d: // CCm in leaf clusters of sub-stage s
			if m.leafStage == s && o-1 == cluster.ConvergecastSendRound(d, m.tt.D) && !m.tree.IsRoot() {
				var a uint64
				if m.hasV {
					a = 1 | uint64(uint32(m.vDepth))<<1 | uint64(uint32(m.reBase))<<21
				}
				out.Send(m.tree.Parent, sim.Msg{Kind: kCCm, A: a, B: uint64(uint32(m.reCid)), Bits: 3*m.idb + 1})
			}
		default: // BCm: re-root broadcast
			if m.leafStage == s && o-1-l.d == cluster.BroadcastSendRound(d) {
				m.composeBCm(out)
			}
		}
	}
}

// cvStep is one Cole–Vishkin reduction step on an oriented forest.
func cvStep(own, parent int32) int32 {
	if parent < 0 { // forest root: pretend a differing parent color
		if own == 0 {
			parent = 1
		} else {
			parent = 0
		}
	}
	if own == parent {
		// Cannot happen on a proper input; keep the color to stay safe.
		return own
	}
	x := uint32(own) ^ uint32(parent)
	pos := int32(0)
	for x&1 == 0 {
		x >>= 1
		pos++
	}
	return 2*pos + (own>>uint(pos))&1
}

// sendColorToSources sends the cluster's current color to every in-edge
// source that participates in the coloring.
func (m *Machine) sendColorToSources(out *sim.Outbox) {
	if !m.participant() {
		return
	}
	for _, nbr := range m.inEdges {
		if m.nbrStatusOf(nbr)&3 == 0 { // source is low and M-free: a coloring participant
			out.Send(nbr, sim.Msg{Kind: kCVx, A: uint64(uint32(m.color)), Bits: m.idb})
		}
	}
}

// centerPeers lists the neighbors this node serves as merge center in
// sub-stage s.
func (m *Machine) centerPeers(s int) []int32 {
	switch s {
	case 0: // M: the smaller-cid side is the center
		if m.mPartner >= 0 && m.tree.CID < m.mPartnerCid {
			return []int32{m.mPartner}
		}
	case 1: // EH: high clusters accept all in-edges
		if m.isHigh {
			return m.inEdges
		}
	case 2: // ML: we accepted these proposals
		return m.mlAccepted
	case 3: // R
		return m.rIn
	}
	return nil
}

// composeBCm emits the re-rooting broadcast message and stages this node's
// own tree update.
func (m *Machine) composeBCm(out *sim.Outbox) {
	if m.tree.IsRoot() {
		if !m.hasV {
			return // no attachment reached the root: nothing to re-root
		}
	} else if !m.bcmGot {
		return // the re-rooting broadcast never arrived: do not forward
	}
	var dist int32
	if m.hasV {
		dist = m.vDepth - m.tree.Depth // ancestor of v
	} else {
		dist = m.bcmDist // parent's dist + 1, learned at listen round
	}
	if dist < 0 || m.vDepth < 0 || m.reBase < 0 {
		// Protocol invariant violated (should be unreachable): abort this
		// re-root instead of propagating garbage; the component will be
		// reported broken and retried.
		return
	}
	out.Broadcast(sim.Msg{
		Kind: kBCm,
		A:    uint64(uint32(m.vDepth)) | uint64(uint32(dist))<<16 | uint64(uint32(m.reBase))<<32,
		B:    uint64(uint32(m.reCid)),
		Bits: 4 * m.idb,
	})
	// Stage our own update.
	m.pendDepth = m.reBase + dist
	m.pendCid = m.reCid
	switch {
	case m.vIsSelf:
		m.pendPar = m.reParent // the center-side boundary node
	case m.hasV:
		m.pendPar = m.vChild
	default:
		m.pendPar = m.tree.Parent
	}
	m.pendSet = true
}
