package phase3

import (
	"sort"

	"github.com/energymis/energymis/internal/cluster"
	"github.com/energymis/energymis/internal/ghaffari"
	"github.com/energymis/energymis/internal/sim"
)

// nbrIndex returns the index of neighbor id in the sorted adjacency list,
// or -1.
func (m *Machine) nbrIndex(id int32) int {
	nb := m.env.Neighbors
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= id })
	if i < len(nb) && nb[i] == id {
		return i
	}
	return -1
}

// nbrStatusOf returns the X2a status bits of the given neighbor.
func (m *Machine) nbrStatusOf(id int32) uint8 {
	if i := m.nbrIndex(id); i >= 0 && i < len(m.nbrStatus) {
		return m.nbrStatus[i]
	}
	return 0xFF
}

// hasForeign reports whether the node has a neighbor in another cluster.
func (m *Machine) hasForeign() bool {
	for _, c := range m.nbrCid {
		if c != m.tree.CID {
			return true
		}
	}
	return false
}

// mergeCand folds a (cid, edge) candidate into the running minimum.
func (m *Machine) mergeCand(cid int32, edge uint64) {
	if cid < 0 {
		return
	}
	if m.candCid < 0 || cid < m.candCid || (cid == m.candCid && edge < m.candEdge) {
		m.candCid, m.candEdge = cid, edge
	}
}

// applyBC1 finalizes the cluster's outgoing-edge choice at the root.
func (m *Machine) applyBC1(cid int32, edge uint64) {
	if cid >= 0 {
		m.chosenEdge = edge
	} else {
		m.chosenEdge = noEdge
	}
	m.notePostBC1()
}

// notePostBC1 derives boundary roles from the chosen edge.
func (m *Machine) notePostBC1() {
	m.active = m.chosenEdge != noEdge
	if !m.active {
		return
	}
	a, b := edgeEnds(m.chosenEdge)
	self := int32(m.env.Node)
	if a == self || b == self {
		other := a
		if a == self {
			other = b
		}
		if i := m.nbrIndex(other); i >= 0 && m.nbrCid[i] != m.tree.CID {
			m.amOutB = true
			m.outNbr = other
			m.outCid = m.nbrCid[i]
		}
	}
}

// fromParent reports whether a message came down the tree.
func (m *Machine) fromParent(msg sim.Msg) bool { return msg.From == m.tree.Parent }

// Deliver implements sim.Machine.
func (m *Machine) Deliver(round int, inbox []sim.Msg) int {
	if round >= m.tt.finCheck {
		m.deliverFinisher(round, inbox)
	} else {
		m.deliverMerge(round, inbox)
	}
	return m.wake.next(round)
}

func (m *Machine) deliverMerge(round int, inbox []sim.Msg) {
	i := round / m.tt.layout.length
	off := round - m.tt.iterBase(i)
	l := &m.tt.layout
	base := m.tt.iterBase(i)
	d := int(m.tree.Depth)

	switch {
	case off == l.x0:
		m.resetIteration()
		if len(m.nbrStatus) != m.env.Degree {
			m.nbrStatus = make([]uint8, m.env.Degree)
		}
		for j := range m.nbrStatus {
			m.nbrStatus[j] = 0xFF
		}
		for _, msg := range inbox {
			if msg.Kind == kCid {
				if j := m.nbrIndex(msg.From); j >= 0 {
					m.nbrCid[j] = int32(uint32(msg.A))
				}
			}
		}
		self := int32(m.env.Node)
		for j, c := range m.nbrCid {
			if c != m.tree.CID {
				m.mergeCand(c, packEdge(self, m.env.Neighbors[j]))
			}
		}
		m.addOp(cluster.OpConvergecast, base+l.cc1)
		m.addOp(cluster.OpBroadcast, base+l.bc1)

	case off >= l.cc1 && off < l.cc1+l.d:
		for _, msg := range inbox {
			if msg.Kind == kCC1 && msg.A > 0 {
				m.mergeCand(int32(uint32(msg.A-1)), msg.B)
			}
		}

	case off >= l.bc1 && off < l.bc1+l.d:
		if m.tree.IsRoot() {
			// The root finalized the choice in Compose; plan follow-ups.
			m.planPostBC1(base)
			return
		}
		for _, msg := range inbox {
			if msg.Kind == kBC1 && m.fromParent(msg) {
				if msg.A == 1 {
					m.chosenEdge = msg.B
				} else {
					m.chosenEdge = noEdge
				}
				m.notePostBC1()
				m.planPostBC1(base)
			}
		}

	case off == l.x1:
		for _, msg := range inbox {
			if msg.Kind != kChosen {
				continue
			}
			if m.amOutB && msg.From == m.outNbr {
				m.mPartner = msg.From
				m.mPartnerCid = int32(uint32(msg.A))
			} else {
				m.inEdges = append(m.inEdges, inEdge{nbr: msg.From, fromCid: int32(uint32(msg.A))})
			}
		}
		if len(m.inEdges) > 0 {
			m.wake.add(base + l.xr2) // possible R-attach requests
		}

	case off >= l.cc2 && off < l.cc2+l.d:
		for _, msg := range inbox {
			if msg.Kind == kCC2 {
				m.cc2Cnt += int(msg.A)
				if msg.B&(1<<32) != 0 {
					m.cc2M = true
					m.cc2MCid = int32(uint32(msg.B))
				}
			}
		}

	case off >= l.bc2 && off < l.bc2+l.d:
		if m.tree.IsRoot() {
			m.planPostBC2(base)
			return
		}
		for _, msg := range inbox {
			if msg.Kind == kBC2 && m.fromParent(msg) {
				m.isHigh = msg.A&1 != 0
				m.hasM = msg.A&2 != 0
				m.hasIn = msg.A&4 != 0
				if m.hasM && m.mPartner < 0 {
					m.mPartnerCid = int32(uint32(msg.B - 1))
				}
				m.planPostBC2(base)
			}
		}

	case off == l.x2a:
		for _, msg := range inbox {
			if msg.Kind == kStatus {
				if j := m.nbrIndex(msg.From); j >= 0 {
					m.nbrStatus[j] = uint8(msg.A)
				}
			}
		}
		if m.amOutB {
			st := m.nbrStatusOf(m.outNbr)
			m.targetHigh = st&1 != 0
			m.targetM = st&2 != 0
			if m.targetHigh {
				m.wake.add(base + l.x2b) // may receive an EH-accept
			}
		}
		m.planColorExchanges(base)

	case off == l.x2b:
		for _, msg := range inbox {
			// Only a low, M-free cluster can become an EH leaf: a high
			// cluster's outgoing edge was removed from H.
			if msg.Kind == kEHAccept && msg.From == m.outNbr && m.participant() {
				m.ehLeaf = true
			}
		}

	default:
		m.deliverLate(base, off, d, inbox)
	}
}

// planPostBC1 schedules the stages every node of an active cluster
// attends after learning the chosen edge. A cluster with no outgoing edge
// spans its entire component: components never split, so its nodes skip
// every remaining iteration and sleep until the finisher check.
func (m *Machine) planPostBC1(base int) {
	l := &m.tt.layout
	if !m.active {
		return
	}
	i := base / l.length
	if i+1 < m.tt.Iters {
		m.wake.add(m.tt.iterBase(i+1) + l.x0)
	}
	if m.amOutB || m.hasForeign() {
		m.wake.add(base + l.x1)
	}
	m.addOp(cluster.OpConvergecast, base+l.cc2)
	m.addOp(cluster.OpBroadcast, base+l.bc2)
}

// planPostBC2 schedules stages that depend on the high/M verdict.
func (m *Machine) planPostBC2(base int) {
	l := &m.tt.layout
	if m.hasForeign() {
		m.wake.add(base + l.x2a)
		m.wake.add(base + l.xr)
	}
	if m.isHigh && len(m.inEdges) > 0 {
		m.wake.add(base + l.x2b)
	}
	if m.participant() {
		m.color = m.tree.CID
		// Only a cluster with in-edges can act as a matching acceptor, so
		// only those need a color of their own; pure proposers learn the
		// acceptor's color at the exchange rounds.
		if m.hasIn {
			for r := 0; r < m.tt.LR; r++ {
				_, cc, bc := m.cvOffsets(r)
				m.addOp(cluster.OpConvergecast, base+cc)
				m.addOp(cluster.OpBroadcast, base+bc)
			}
		}
	}
	m.addOp(cluster.OpConvergecast, base+l.cc3)
	m.addOp(cluster.OpBroadcast, base+l.bc3)
	// Center roles known already: M center and EH center handshakes.
	if m.mPartner >= 0 && m.tree.CID < m.mPartnerCid {
		xm, _, _ := l.mgBlock(0)
		m.wake.add(base + xm)
	}
	if m.isHigh && len(m.inEdges) > 0 {
		xm, _, _ := l.mgBlock(1)
		m.wake.add(base + xm)
	}
}

// cvOffsets returns the X, CC, BC offsets of color-reduction round r.
func (m *Machine) cvOffsets(r int) (x, cc, bc int) {
	l := &m.tt.layout
	baseOff := l.cvBase + r*(2*l.d+1)
	return baseOff, baseOff + 1, baseOff + 1 + l.d
}

// cvFinalX returns the offset of the final color-exchange round.
func (m *Machine) cvFinalX() int {
	l := &m.tt.layout
	return l.cvBase + m.tt.LR*(2*l.d+1)
}

// planColorExchanges schedules the per-round color exchanges once
// neighbor statuses are known (at X2a).
func (m *Machine) planColorExchanges(base int) {
	if !m.participant() {
		return
	}
	sendAny := false
	for _, e := range m.inEdges {
		if m.nbrStatusOf(e.nbr)&3 == 0 {
			sendAny = true
			break
		}
	}
	recv := m.amOutB && !m.targetHigh && !m.targetM
	if !sendAny && !recv {
		return
	}
	for r := 0; r < m.tt.LR; r++ {
		x, _, _ := m.cvOffsets(r)
		m.wake.add(base + x)
	}
	m.wake.add(base + m.cvFinalX())
}

// planClassLoop schedules the node's class-window attendance once its
// cluster color is final.
func (m *Machine) planClassLoop(base int) {
	if !m.participant() || !m.hasIn || m.color < 0 || int(m.color) >= m.tt.Classes {
		return
	}
	l := &m.tt.layout
	xa, cca, bca, xb := l.clBlock(int(m.color))
	if len(m.inEdges) > 0 {
		m.wake.add(base + xa)
		m.wake.add(base + xb)
	}
	m.addOp(cluster.OpConvergecast, base+cca)
	m.addOp(cluster.OpBroadcast, base+bca)
}

// planTargetClass schedules the proposer-side rounds of the out-target's
// class window.
func (m *Machine) planTargetClass(base int) {
	if !m.amOutB || !m.participant() || m.targetHigh || m.targetM {
		return
	}
	if m.targetColor < 0 || int(m.targetColor) >= m.tt.Classes {
		return
	}
	l := &m.tt.layout
	xa, _, _, xb := l.clBlock(int(m.targetColor))
	m.wake.add(base + xa)
	m.wake.add(base + xb)
}

// decideRole computes the cluster's merge role at the root (BC3).
func (m *Machine) decideRole() {
	ehL := m.cc3Agg&1 != 0 || m.ehLeaf
	mlL := m.cc3Agg&2 != 0 || m.mlLeaf
	m.hasMerge = m.hasM || m.isHigh || m.clusterMatched || ehL || mlL
	switch {
	case m.hasM && m.tree.CID > m.mPartnerCid:
		m.leafStage = 0
	case ehL:
		m.leafStage = 1
	case mlL:
		m.leafStage = 2
	case m.active && !m.hasMerge:
		m.leafStage = 3
	default:
		m.leafStage = noStage
	}
}

// planPostBC3 schedules the merge sub-stage windows for leaf clusters.
func (m *Machine) planPostBC3(base int) {
	l := &m.tt.layout
	if m.leafStage == 3 && m.amOutB {
		m.wake.add(base + l.xr2)
	}
	if m.leafStage < noStage {
		xm, ccm, bcm := l.mgBlock(m.leafStage)
		// The leaf boundary listens for the depth handshake.
		if m.isLeafBoundary() {
			m.wake.add(base + xm)
		}
		m.addOp(cluster.OpConvergecast, base+ccm)
		m.addOp(cluster.OpBroadcast, base+bcm)
	}
}

// isLeafBoundary reports whether this node anchors its cluster's merge
// edge for the cluster's leaf sub-stage.
func (m *Machine) isLeafBoundary() bool {
	switch m.leafStage {
	case 0:
		return m.mPartner >= 0
	case 1:
		return m.ehLeaf
	case 2:
		return m.mlLeaf
	case 3:
		return m.amOutB
	}
	return false
}

// deliverLate handles CV, class-loop, role, and merge deliveries.
func (m *Machine) deliverLate(base, off, d int, inbox []sim.Msg) {
	l := &m.tt.layout

	if off >= l.cvBase && off < l.clBase {
		rel := off - l.cvBase
		blockLen := 2*l.d + 1
		if rel == m.tt.LR*blockLen { // final color exchange
			for _, msg := range inbox {
				if msg.Kind == kCVx && msg.From == m.outNbr {
					m.targetColor = int32(uint32(msg.A))
				}
			}
			m.planTargetClass(base)
			return
		}
		r := rel / blockLen
		o := rel % blockLen
		switch {
		case o == 0: // X round: u learns target's current color
			for _, msg := range inbox {
				if msg.Kind == kCVx && msg.From == m.outNbr {
					m.targetColor = int32(uint32(msg.A))
					m.cvUp = int64(msg.A) + 1
				}
			}
		case o >= 1 && o < 1+l.d: // CC
			for _, msg := range inbox {
				if msg.Kind == kCVcc && msg.A > 0 {
					m.cvUp = int64(msg.A)
				}
			}
		default: // BC
			if m.tree.IsRoot() {
				if r == m.tt.LR-1 && o-1-l.d == cluster.BroadcastSendRound(0) {
					m.planClassLoop(base)
				}
				return
			}
			for _, msg := range inbox {
				if msg.Kind == kCVbc && m.fromParent(msg) {
					m.color = int32(uint32(msg.A))
					if r == m.tt.LR-1 {
						m.planClassLoop(base)
					}
				}
			}
		}
		return
	}

	if off >= l.clBase && off < l.cc3 {
		rel := off - l.clBase
		blockLen := 2*l.d + 2
		c := rel / blockLen
		o := rel % blockLen
		switch {
		case o == 0: // Xa: record availability proposals
			if int(m.color) != c {
				return
			}
			self := int32(m.env.Node)
			for _, msg := range inbox {
				if msg.Kind != kAvail {
					continue
				}
				for j := range m.inEdges {
					if m.inEdges[j].nbr == msg.From {
						m.inEdges[j].avail = true
						e := packEdge(self, msg.From)
						if e < m.ccaEdge {
							m.ccaEdge = e
						}
					}
				}
			}
		case o >= 1 && o < 1+l.d: // CCa
			for _, msg := range inbox {
				if msg.Kind == kCCa {
					if msg.A < m.ccaEdge {
						m.ccaEdge = msg.A
					}
					if msg.B != 0 {
						m.ccaMatched = true
					}
				}
			}
		case o >= 1+l.d && o < 1+2*l.d: // BCa
			if m.tree.IsRoot() {
				return
			}
			for _, msg := range inbox {
				if msg.Kind == kBCa && m.fromParent(msg) {
					m.acceptEdge = msg.A
					m.clusterMatched = msg.B != 0
				}
			}
		default: // Xb
			for _, msg := range inbox {
				if msg.Kind == kAccept && msg.From == m.outNbr {
					m.mlLeaf = true
				}
			}
			if len(m.mlAccepted) > 0 { // we sent accepts: center in ML stage
				xm, _, _ := l.mgBlock(2)
				m.wake.add(base + xm)
			}
		}
		return
	}

	if off >= l.cc3 && off < l.cc3+l.d {
		for _, msg := range inbox {
			if msg.Kind == kCC3 {
				m.cc3Agg |= msg.A
			}
		}
		return
	}

	if off >= l.bc3 && off < l.bc3+l.d {
		if m.tree.IsRoot() {
			m.planPostBC3(base)
			return
		}
		for _, msg := range inbox {
			if msg.Kind == kBC3 && m.fromParent(msg) {
				m.leafStage = int(msg.A & 7)
				m.hasMerge = msg.A&8 != 0
				m.planPostBC3(base)
			}
		}
		return
	}

	if off == l.xr {
		for _, msg := range inbox {
			if msg.Kind == kXR && m.amOutB && msg.From == m.outNbr {
				m.targetMerge = msg.A != 0
			}
		}
		return
	}

	if off == l.xr2 {
		for _, msg := range inbox {
			if msg.Kind == kRAttach {
				m.rIn = append(m.rIn, msg.From)
			}
		}
		if len(m.rIn) > 0 {
			xm, _, _ := l.mgBlock(3)
			m.wake.add(base + xm)
		}
		return
	}

	if off >= l.mgBase && off < l.length {
		rel := off - l.mgBase
		blockLen := 2*l.d + 1
		s := rel / blockLen
		o := rel % blockLen
		switch {
		case o == 0: // Xm: leaf boundary learns the attachment point
			if m.leafStage != s || !m.isLeafBoundary() {
				return
			}
			for _, msg := range inbox {
				if msg.Kind == kXm {
					m.hasV = true
					m.vIsSelf = true
					m.vDepth = m.tree.Depth
					m.reParent = msg.From
					m.reBase = int32(uint32(msg.A)) + 1
					m.reCid = int32(uint32(msg.B))
				}
			}
		case o >= 1 && o < 1+l.d: // CCm
			for _, msg := range inbox {
				if msg.Kind == kCCm && msg.A&1 != 0 {
					m.hasV = true
					m.vChild = msg.From
					m.vDepth = int32((msg.A >> 1) & 0xFFFFF)
					m.reBase = int32(msg.A >> 21)
					m.reCid = int32(uint32(msg.B))
				}
			}
		default: // BCm
			if m.leafStage != s {
				return
			}
			for _, msg := range inbox {
				if msg.Kind == kBCm && m.fromParent(msg) {
					m.bcmGot = true
					m.vDepth = int32(msg.A & 0xFFFF)
					dist := int32((msg.A >> 16) & 0xFFFF)
					m.reBase = int32(msg.A >> 32)
					m.reCid = int32(uint32(msg.B))
					if !m.hasV {
						m.bcmDist = dist + 1
					}
				}
			}
			if m.pendSet {
				m.tree.Depth = m.pendDepth
				m.tree.Parent = m.pendPar
				m.tree.CID = m.pendCid
				m.pendSet = false
			}
		}
	}
}

// --- Finisher (Lemma 2.7) ---

func (m *Machine) composeFinisher(round int, out *sim.Outbox) {
	tt := m.tt
	d := int(m.tree.Depth)
	switch {
	case round == tt.finCheck:
		out.Broadcast(sim.Msg{Kind: kFCheck, A: uint64(uint32(m.tree.CID)), Bits: m.idb})
	case round >= tt.finCCb && round < tt.finCCb+tt.D:
		if round-tt.finCCb == cluster.ConvergecastSendRound(d, tt.D) && !m.tree.IsRoot() {
			var a uint64
			if m.brokenLocal {
				a = 1
			}
			out.Send(m.tree.Parent, sim.Msg{Kind: kCCb, A: a, Bits: 1})
		}
	case round >= tt.finBCb && round < tt.finBCb+tt.D:
		if round-tt.finBCb == cluster.BroadcastSendRound(d) {
			if m.tree.IsRoot() {
				m.broken = m.brokenLocal
			}
			var a uint64
			if m.broken {
				a = 1
			}
			out.Broadcast(sim.Msg{Kind: kBCb, A: a, Bits: 1})
		}
	default:
		m.composeAttempt(round, out)
	}
}

func (m *Machine) composeAttempt(round int, out *sim.Outbox) {
	if m.done || m.broken || m.proto == nil {
		return
	}
	a := (round - m.tt.finBase) / m.tt.attLen
	g0, cc, bc := m.tt.attStages(a)
	d := int(m.tree.Depth)
	switch {
	case round >= g0 && round < g0+2*m.tt.GRounds:
		if (round-g0)%2 == 0 {
			marks := m.proto.ComposeMarks()
			out.Broadcast(packVec(kMarks, marks, m.proto.Bits()))
		} else if anyWord(m.pendingJoins) {
			out.Broadcast(packVec(kJoins, m.pendingJoins, m.proto.Bits()))
		}
	case round >= cc && round < cc+m.tt.D:
		if round-cc == cluster.ConvergecastSendRound(d, m.tt.D) && !m.tree.IsRoot() {
			sv := m.proto.SuccessVector()
			a0, a1 := m.ccfA&word(sv, 0), m.ccfB&word(sv, 1)
			out.Send(m.tree.Parent, sim.Msg{Kind: kCCf, A: a0, B: a1, Bits: int32(m.tt.K)})
		}
	case round >= bc && round < bc+m.tt.D:
		if round-bc == cluster.BroadcastSendRound(d) {
			if m.tree.IsRoot() {
				sv := m.proto.SuccessVector()
				a0, a1 := m.ccfA&word(sv, 0), m.ccfB&word(sv, 1)
				m0, m1 := maskK(m.tt.K)
				a0, a1 = a0&m0, a1&m1
				m.bcfPayload = 0
				if e := firstSet(a0, a1); e >= 0 {
					m.bcfPayload = 1<<32 | uint64(e)
				}
			}
			out.Broadcast(sim.Msg{Kind: kBCf, A: m.bcfPayload, Bits: 9})
		}
	}
}

// applyBCf consumes the finisher verdict at the node's own send round.
func (m *Machine) applyBCf(attempt int) {
	if m.bcfPayload&(1<<32) != 0 {
		e := int(uint32(m.bcfPayload))
		m.InMIS = m.proto.InMIS[e]
		m.decided = true
		m.done = true
		return
	}
	m.planAttempt(attempt + 1)
}

func (m *Machine) deliverFinisher(round int, inbox []sim.Msg) {
	tt := m.tt
	switch {
	case round == tt.finCheck:
		for _, msg := range inbox {
			if msg.Kind == kFCheck && int32(uint32(msg.A)) != m.tree.CID {
				m.brokenLocal = true
			}
		}
		m.addOp(cluster.OpConvergecast, tt.finCCb)
		m.addOp(cluster.OpBroadcast, tt.finBCb)
	case round >= tt.finCCb && round < tt.finCCb+tt.D:
		for _, msg := range inbox {
			if msg.Kind == kCCb && msg.A != 0 {
				m.brokenLocal = true
			}
		}
	case round >= tt.finBCb && round < tt.finBCb+tt.D:
		if !m.tree.IsRoot() {
			for _, msg := range inbox {
				if msg.Kind == kBCb && m.fromParent(msg) {
					m.broken = msg.A != 0
				}
			}
		}
		if !m.broken {
			m.planAttempt(0)
		}
	default:
		m.deliverAttempt(round, inbox)
	}
}

// planAttempt schedules attempt a and resets the execution state.
func (m *Machine) planAttempt(a int) {
	if a >= m.tt.Attempts {
		return
	}
	m.attempts = a + 1
	m.proto = ghaffari.NewProto(m.tt.K, m.env.Rand)
	m.ccfA, m.ccfB = ^uint64(0), ^uint64(0)
	m.bcfPayload = 0
	g0, cc, bc := m.tt.attStages(a)
	// The dynamics rounds are scheduled one at a time so a node that is
	// decided in every execution can sleep out the rest of the block.
	m.wake.add(g0)
	m.addOp(cluster.OpConvergecast, cc)
	m.addOp(cluster.OpBroadcast, bc)
}

func (m *Machine) deliverAttempt(round int, inbox []sim.Msg) {
	if m.done || m.broken || m.proto == nil {
		return
	}
	a := (round - m.tt.finBase) / m.tt.attLen
	g0, cc, bc := m.tt.attStages(a)
	switch {
	case round >= g0 && round < g0+2*m.tt.GRounds:
		if (round-g0)%2 == 0 {
			m.pendingJoins = m.proto.AbsorbMarks(vecsOf(inbox, kMarks))
		} else {
			m.proto.AbsorbJoins(vecsOf(inbox, kJoins))
		}
		// Continue only while some execution is undecided, and only at
		// logical-round boundaries so mark/join pairs stay intact.
		if round+1 < g0+2*m.tt.GRounds {
			if (round-g0)%2 == 0 || !m.proto.AllDecided() {
				m.wake.add(round + 1)
			}
		}
	case round >= cc && round < cc+m.tt.D:
		for _, msg := range inbox {
			if msg.Kind == kCCf {
				m.ccfA &= msg.A
				m.ccfB &= msg.B
			}
		}
	case round >= bc && round < bc+m.tt.D:
		// Non-roots store the verdict at the listen round and both apply
		// and forward it at their own send round, so the broadcast keeps
		// flowing to deeper nodes before anyone stops participating.
		for _, msg := range inbox {
			if msg.Kind == kBCf && m.fromParent(msg) {
				m.bcfPayload = msg.A
			}
		}
		if round-bc == cluster.BroadcastSendRound(int(m.tree.Depth)) {
			m.applyBCf(a)
		}
	}
}

func packVec(kind uint8, words []uint64, bits int32) sim.Msg {
	msg := sim.Msg{Kind: kind, Bits: bits}
	if len(words) > 0 {
		msg.A = words[0]
	}
	if len(words) > 1 {
		msg.B = words[1]
	}
	return msg
}

func vecsOf(inbox []sim.Msg, kind uint8) [][]uint64 {
	var out [][]uint64
	for _, msg := range inbox {
		if msg.Kind == kind {
			out = append(out, []uint64{msg.A, msg.B})
		}
	}
	return out
}

func anyWord(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

func word(words []uint64, i int) uint64 {
	if i < len(words) {
		return words[i]
	}
	return 0
}

func maskK(k int) (uint64, uint64) {
	if k >= 128 {
		return ^uint64(0), ^uint64(0)
	}
	if k > 64 {
		return ^uint64(0), (uint64(1) << (uint(k) - 64)) - 1
	}
	if k == 64 {
		return ^uint64(0), 0
	}
	return (uint64(1) << uint(k)) - 1, 0
}

func firstSet(a, b uint64) int {
	for i := 0; i < 64; i++ {
		if a&(1<<uint(i)) != 0 {
			return i
		}
	}
	for i := 0; i < 64; i++ {
		if b&(1<<uint(i)) != 0 {
			return 64 + i
		}
	}
	return -1
}
