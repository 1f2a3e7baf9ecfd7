package circuit

// DAG is the gate dependency graph of a circuit restricted to scheduled
// (non-frame-only) gates. Two gates depend on each other iff they share a
// qubit; edges go from the earlier gate to the later one, so the DAG encodes
// exactly the ordering a scheduler must respect.
//
// The DAG also precomputes each gate's "height": the length of the longest
// dependency chain from the gate to the end of the circuit. RESCQ uses
// height as its scheduling priority ("gates on qubits with larger circuit
// depth are prioritised since they are more likely to be on the critical
// path", Figure 7 caption).
type DAG struct {
	circ *Circuit

	// nodes holds the scheduled gates in program order.
	nodes []Gate
	// index maps gate ID -> node index, or -1 for frame-only gates.
	index []int

	succ   [][]int // node index -> successor node indices
	pred   [][]int // node index -> predecessor node indices
	height []int   // node index -> critical-path height (>= 1)
	layer  []int   // node index -> ASAP layer (0-based)
	layers int     // total layer count
}

// NewDAG builds the dependency DAG for c.
func NewDAG(c *Circuit) *DAG {
	d := &DAG{
		circ:  c,
		nodes: make([]Gate, 0, len(c.Gates)),
		index: make([]int, len(c.Gates)),
	}
	for i := range d.index {
		d.index[i] = -1
	}
	for _, g := range c.Gates {
		if g.IsFrameOnly() {
			continue
		}
		d.index[g.ID] = len(d.nodes)
		d.nodes = append(d.nodes, g)
	}
	n := len(d.nodes)
	// Every edge joins consecutive gates on one qubit, so a node has at
	// most arity predecessors and successors: each node's lists are cut
	// from one shared array with room for arity, and appending to them
	// never allocates.
	succBuf, predBuf := make([]int, n*arity), make([]int, n*arity)
	d.succ = make([][]int, n)
	d.pred = make([][]int, n)
	for i := range n {
		j := i * arity
		d.succ[i] = succBuf[j : j : j+arity]
		d.pred[i] = predBuf[j : j : j+arity]
	}
	d.height = make([]int, n)
	d.layer = make([]int, n)

	last := make([]int, c.NumQubits) // last node index touching each qubit
	for q := range last {
		last[q] = -1
	}
	for i, g := range d.nodes {
		for j := 0; j < g.Kind.NumQubits(); j++ {
			q := g.Qubits[j]
			if p := last[q]; p >= 0 {
				// Two CNOTs can share both qubits; dedupe the edge so
				// in-degrees and successor notifications stay correct.
				if np := len(d.pred[i]); np == 0 || d.pred[i][np-1] != p {
					d.succ[p] = append(d.succ[p], i)
					d.pred[i] = append(d.pred[i], p)
				}
			}
			last[q] = i
		}
	}
	// Heights: longest chain to the end, computed in reverse program order
	// (program order is a topological order).
	for i := n - 1; i >= 0; i-- {
		h := 0
		for _, s := range d.succ[i] {
			if d.height[s] > h {
				h = d.height[s]
			}
		}
		d.height[i] = h + 1
	}
	// ASAP layers, used by the static baseline schedulers.
	for i := 0; i < n; i++ {
		l := 0
		for _, p := range d.pred[i] {
			if d.layer[p]+1 > l {
				l = d.layer[p] + 1
			}
		}
		d.layer[i] = l
		if l+1 > d.layers {
			d.layers = l + 1
		}
	}
	return d
}

// Circuit returns the underlying circuit.
func (d *DAG) Circuit() *Circuit { return d.circ }

// Len returns the number of scheduled gates.
func (d *DAG) Len() int { return len(d.nodes) }

// Gate returns the scheduled gate at node index i.
func (d *DAG) Gate(i int) Gate { return d.nodes[i] }

// Gates returns all scheduled gates in program order. The returned slice is
// shared; callers must not mutate it.
func (d *DAG) Gates() []Gate { return d.nodes }

// NodeOf returns the node index for a gate ID, or -1 if the gate is
// frame-only and therefore not part of the DAG.
func (d *DAG) NodeOf(gateID int) int { return d.index[gateID] }

// arity is the most qubits a gate acts on.
const arity = len(Gate{}.Qubits)

// Succ returns the successor node indices of node i (shared slice).
func (d *DAG) Succ(i int) []int { return d.succ[i] }

// Pred returns the predecessor node indices of node i (shared slice).
func (d *DAG) Pred(i int) []int { return d.pred[i] }

// InDegree returns the number of predecessors of node i.
func (d *DAG) InDegree(i int) int { return len(d.pred[i]) }

// Height returns the critical-path height of node i (chain length from i to
// the end of the circuit, inclusive; sinks have height 1).
func (d *DAG) Height(i int) int { return d.height[i] }

// Layer returns the ASAP layer of node i.
func (d *DAG) Layer(i int) int { return d.layer[i] }

// NumLayers returns the total number of ASAP layers (the logical depth).
func (d *DAG) NumLayers() int { return d.layers }

// CriticalPathLength returns the longest dependency chain in the circuit.
func (d *DAG) CriticalPathLength() int {
	m := 0
	for _, h := range d.height {
		if h > m {
			m = h
		}
	}
	return m
}

// Roots returns the node indices with no predecessors (initially ready).
func (d *DAG) Roots() []int {
	var out []int
	for i := range d.nodes {
		if len(d.pred[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}
