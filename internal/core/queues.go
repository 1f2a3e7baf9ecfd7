package core

import "slices"

// queueSet maintains one FIFO gate queue per ancilla tile (the "Q" in
// RESCQ). Gates are appended when they become ready — seniority order — and
// a gate may act on an ancilla only while at the head of its queue, which
// serializes contention without races (paper section 4.1).
type queueSet struct {
	q     [][]int
	arena []int // the queues' shared initial backing
}

// queueCap is each queue's initial capacity, carved from one shared
// backing array so that only unusually deep queues grow their own.
const queueCap = 4

// reset empties the set to numAncilla queues, reusing its storage.
func (qs *queueSet) reset(numAncilla int) {
	qs.q = slices.Grow(qs.q[:0], numAncilla)[:numAncilla]
	if cap(qs.arena) < queueCap*numAncilla {
		qs.arena = make([]int, queueCap*numAncilla)
	}
	for a := range qs.q {
		qs.q[a] = qs.arena[a*queueCap : a*queueCap : (a+1)*queueCap]
	}
}

// enqueue appends node to ancilla anc's queue.
func (qs *queueSet) enqueue(anc, node int) {
	qs.q[anc] = append(qs.q[anc], node)
}

// head returns the node at the head of anc's queue, or -1 if empty.
func (qs *queueSet) head(anc int) int {
	if len(qs.q[anc]) == 0 {
		return -1
	}
	return qs.q[anc][0]
}

// remove deletes node from anc's queue wherever it sits.
func (qs *queueSet) remove(anc, node int) {
	q := qs.q[anc]
	for i, n := range q {
		if n == node {
			qs.q[anc] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// lenAt returns the queue length of ancilla anc — the paper's proxy for
// contention when choosing among candidate preparation ancillas.
func (qs *queueSet) lenAt(anc int) int { return len(qs.q[anc]) }

// contains reports whether node is queued on anc.
func (qs *queueSet) contains(anc, node int) bool {
	for _, n := range qs.q[anc] {
		if n == node {
			return true
		}
	}
	return false
}
