package cluster

// Tree is the per-node LDT state.
type Tree struct {
	Parent int32 // local node index of the parent; -1 at the root
	Depth  int32
	CID    int32 // cluster identifier (the root's node index)
}

// IsRoot reports whether the node is its cluster's root.
func (t *Tree) IsRoot() bool { return t.Parent < 0 }

// Singleton initializes the tree as a fresh singleton cluster rooted at
// the node itself.
func Singleton(self int32) Tree {
	return Tree{Parent: -1, Depth: 0, CID: self}
}

// BroadcastSendRound returns the round (offset within a window of length
// D) at which a node of depth d forwards a broadcast message.
func BroadcastSendRound(d int) int { return d }

// BroadcastListenRound returns the window round at which a node of depth d
// receives the broadcast from its parent, or -1 for the root (which
// originates the message).
func BroadcastListenRound(d int) int { return d - 1 }

// ConvergecastSendRound returns the window round at which a node of depth
// d sends its aggregate to its parent (the root never sends).
func ConvergecastSendRound(d, depthBound int) int { return depthBound - 1 - d }

// ConvergecastListenRound returns the window round at which a node of
// depth d receives its children's aggregates, or -1 when the node cannot
// have children within the bound.
func ConvergecastListenRound(d, depthBound int) int {
	r := depthBound - 2 - d
	if r < 0 {
		return -1
	}
	return r
}

// OpAwakeRounds lists the (at most two) window rounds a node of depth d is
// awake during a tree operation of the given kind.
type OpKind int

// Tree operation kinds.
const (
	OpBroadcast OpKind = iota + 1
	OpConvergecast
)

// AwakeRounds returns the window-relative rounds a node of depth d must be
// awake for the operation, in increasing order: rounds[:k], k ≤ 2.
func AwakeRounds(op OpKind, d, depthBound int) (rounds [2]int, k int) {
	switch op {
	case OpBroadcast:
		if d == 0 {
			return [2]int{0}, 1
		}
		if d >= depthBound {
			return rounds, 0
		}
		return [2]int{d - 1, d}, 2
	case OpConvergecast:
		listen := ConvergecastListenRound(d, depthBound)
		send := ConvergecastSendRound(d, depthBound)
		if d == 0 {
			// The root only aggregates; it has no parent to send to.
			if listen < 0 {
				return rounds, 0
			}
			return [2]int{listen}, 1
		}
		if send < 0 {
			return rounds, 0
		}
		if listen < 0 {
			return [2]int{send}, 1
		}
		return [2]int{listen, send}, 2
	default:
		return rounds, 0
	}
}
