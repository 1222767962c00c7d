package schedule

import "slices"

// Set returns S_k for a schedule over T rounds (0-based): each member
// once, in search-path order, which is not sorted. It panics if k is
// outside [0, T).
func Set(t, k int) []int {
	if k < 0 || k >= t {
		panic("schedule: round out of range")
	}
	// The binary-search path from [0, T-1] to k, recording midpoints. k is
	// the last midpoint, of the interval [k, k]; it is also the midpoint
	// where the path turns left at k, if it does, and is then listed there
	// only.
	set := make([]int, 0, MaxSize(t))
	lo, hi := 0, t-1
	listed := false
	for lo < hi {
		mid := lo + (hi-lo)/2
		set = append(set, mid)
		if k <= mid {
			listed = listed || mid == k
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if !listed {
		set = append(set, k)
	}
	return set
}

// AppendAscending appends S_k for a schedule over T rounds to dst, in
// ascending order with each member once, and returns the extended slice.
// It allocates only when dst has to grow. It panics if k is outside
// [0, T).
//
// Where the search path to k turns right, the midpoint lies below k, and
// these midpoints ascend along the path; where it turns left, the midpoint
// lies at or above k, and these descend. So one pass appends the
// right-turn midpoints and then k, a second appends the left-turn
// midpoints other than k, and that tail is reversed in place.
func AppendAscending(dst []int32, t, k int) []int32 {
	if k < 0 || k >= t {
		panic("schedule: round out of range")
	}
	lo, hi := 0, t-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if k <= mid {
			hi = mid
		} else {
			dst = append(dst, int32(mid))
			lo = mid + 1
		}
	}
	dst = append(dst, int32(k))
	tail := len(dst)
	lo, hi = 0, t-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if k <= mid {
			if mid != k {
				dst = append(dst, int32(mid))
			}
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	slices.Reverse(dst[tail:])
	return dst
}

// All materializes S_k for every k in [0, T). Intended for tests and
// small T; nodes in the simulator use Set for their own round only.
func All(t int) [][]int {
	out := make([][]int, t)
	for k := 0; k < t; k++ {
		out[k] = Set(t, k)
	}
	return out
}

// MaxSize returns the worst-case |S_k| for a schedule over T rounds:
// ceil(log2 T) + 1, the length of the longest search path.
func MaxSize(t int) int {
	if t <= 0 {
		return 0
	}
	return log2(t) + 1
}

func log2(t int) int {
	l := 0
	for p := 1; p < t; p <<= 1 {
		l++
	}
	return l
}

// Contains reports whether round l belongs to S_k without materializing
// the set: l is on the binary-search path to k.
func Contains(t, k, l int) bool {
	lo, hi := 0, t-1
	for {
		mid := lo + (hi-lo)/2
		if mid == l {
			return true
		}
		if lo == hi {
			return false
		}
		if k <= mid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
}
