// Package bitvec provides compact bit vectors and bit-size accounting
// helpers used to express CONGEST messages, plus the sparse word-packed
// sets and row kernels the dynamic repair sweeps are built on.
//
// The CONGEST model limits each message to B = O(log n) bits. Protocols in
// this repository build their payloads from integers and bit vectors and
// declare the exact bit count of every message; this package centralizes
// those size computations so tests can assert model compliance.
//
// Sparse is a reusable word-packed set that lists the words it writes,
// so enumeration, counting and Reset cost time proportional to the words
// in use, not to the key space. The dynamic repair path tracks its
// dirty, woken, and region sets in Sparse sets and ORs whole adjacency
// rows into them (Sparse.OrRow), each key into its own word, in loops
// with no call. Its one other row kernel, FirstAndRow, finds a row's
// smallest member for the conflict sweep. The repair path needs no
// kernel that counts a row's members: the engine keeps that count per
// node.
package bitvec
