package bitvec

// Kernels over CSR adjacency rows. A row is a sorted list of int32 ids;
// `words` is a plain bitset indexed id>>6 (the dynamic engine's
// membership words). Each kernel is one loop over the row's keys, every
// key tested or OR-ed in its own word: the rows the repair path walks put
// one or two keys in each word they reach, so grouping consecutive keys
// into one mask first saves few loads and costs a data-dependent branch
// per key. FirstAndRow is the search kernel; Sparse.OrRow is the OR
// kernel.

// FirstAndRow returns the smallest row id whose bit is set in words, or
// -1 when the row and the bitset are disjoint.
func FirstAndRow(words []uint64, row []int32) int32 {
	for _, id := range row {
		if w := int(id >> 6); w < len(words) && words[w]&(1<<(uint32(id)&63)) != 0 {
			return id
		}
	}
	return -1
}
