package slpmatch

import (
	"math/big"

	"docspanner/internal/automata"
	"docspanner/internal/slp"
)

// Counting over compressed documents: for each SLP node A, an integer
// matrix N_A[p][q] counts the runs of the deterministic eVA from p to q
// reading 𝔇(A) (with at most one mask before each letter). Matrices
// compose multiplicatively along the grammar, so the exact number of
// result tuples of a spanner on an SLP-compressed document — a quantity
// that can be astronomically large — is computed in O(|S|) big-integer
// matrix products without enumeration and without decompression.

// counterCore is the shared state of all Counters over one DEVA.
type counterCore struct {
	c         *automata.CompiledDEVA
	nq        int
	memo      *nodeCache[countMatrix]
	leaf      [256]countMatrix
	finalWays []*big.Int // read-only after construction
}

// countMatrix is a dense nq×nq matrix of big integers (nil = zero). A
// stored matrix is immutable.
type countMatrix []*big.Int

func counterCoreFor(d *automata.DEVA) *counterCore {
	if v, ok := counterCores.Load(d); ok {
		return v.(*counterCore)
	}
	core := buildCounterCore(d)
	v, _ := counterCores.LoadOrStore(d, core)
	return v.(*counterCore)
}

func buildCounterCore(d *automata.DEVA) *counterCore {
	c := d.Compiled()
	nq := c.NQ
	core := &counterCore{c: c, nq: nq, memo: newNodeCache[countMatrix]()}

	zero := make(countMatrix, nq*nq)
	for b := range core.leaf {
		core.leaf[b] = zero
	}
	one := big.NewInt(1)
	for _, b := range c.Letters {
		steps := c.StepsFor(b)
		m := make(countMatrix, nq*nq)
		add := func(p, q int) {
			i := p*nq + q
			if m[i] == nil {
				m[i] = new(big.Int)
			}
			m[i].Add(m[i], one)
		}
		for q := 0; q < nq; q++ {
			if s := steps[q]; s >= 0 {
				add(q, int(s))
			}
			for _, me := range c.MaskEdges[q] {
				if s := steps[me.To]; s >= 0 {
					add(q, int(s))
				}
			}
		}
		core.leaf[b] = m
	}

	// finalWays[q] counts the accepting completions at the end boundary:
	// one for a final q, plus one per final mask successor.
	core.finalWays = make([]*big.Int, nq)
	for q := 0; q < nq; q++ {
		w := new(big.Int)
		if c.Final[q] {
			w.SetInt64(1)
		}
		for _, me := range c.MaskEdges[q] {
			if c.Final[me.To] {
				w.Add(w, one)
			}
		}
		core.finalWays[q] = w
	}
	return core
}

func (core *counterCore) nodeMatrix(n *slp.Node) countMatrix {
	if n.IsLeaf() {
		return core.leaf[n.LeafByte()]
	}
	if m, ok := core.memo.get(n); ok {
		return m
	}
	l := core.nodeMatrix(n.Left())
	r := core.nodeMatrix(n.Right())
	nq := core.nq
	m := make(countMatrix, nq*nq)
	var tmp big.Int
	for p := 0; p < nq; p++ {
		for k := 0; k < nq; k++ {
			lv := l[p*nq+k]
			if lv == nil || lv.Sign() == 0 {
				continue
			}
			for q := 0; q < nq; q++ {
				rv := r[k*nq+q]
				if rv == nil || rv.Sign() == 0 {
					continue
				}
				tmp.Mul(lv, rv)
				i := p*nq + q
				if m[i] == nil {
					m[i] = new(big.Int)
				}
				m[i].Add(m[i], &tmp)
			}
		}
	}
	core.memo.put(n, m)
	return m
}

// Counter carries the per-node count matrices for one deterministic eVA.
// All Counters over one DEVA share a core and node cache; a Counter is
// safe for concurrent use.
type Counter struct {
	core *counterCore
}

// NewCounter prepares (or reuses, hash-consed per automaton) a counter
// for the automaton.
func NewCounter(d *automata.DEVA) *Counter {
	return &Counter{core: counterCoreFor(d)}
}

// CachedNodes reports the number of inner SLP nodes with computed count
// matrices in the shared cache of this Counter's automaton.
func (ct *Counter) CachedNodes() int { return ct.core.memo.len() }

// WarmDelta brings the count-matrix cache up to date after an edit that
// turned oldRoot into newRoot, recomputing only the O(log d) fresh spine
// nodes; a Count on newRoot afterwards is a single cache hit plus the
// final-vector product. A nil oldRoot warms newRoot from whatever is
// cached. oldRoot is superseded: the matrices of the nodes only it
// reaches are dropped afterwards, and counting it later recomputes them.
func (ct *Counter) WarmDelta(oldRoot, newRoot *slp.Node) WarmStats {
	core := ct.core
	before := core.memo.len()
	st := warmDelta(oldRoot, newRoot,
		func(n *slp.Node) bool { _, ok := core.memo.get(n); return ok },
		func(n *slp.Node) { core.nodeMatrix(n) },
		func(n *slp.Node) { core.nodeMatrix(n) },
		core.memo.del)
	st.CachedBefore = before
	return st
}

// Count returns the exact number of result tuples of the spanner on
// 𝔇(root), computed on the compressed representation. Runs of a
// deterministic eVA are in bijection with tuples, so the count is exact
// even when it far exceeds what enumeration could ever produce.
func (ct *Counter) Count(root *slp.Node) *big.Int {
	core := ct.core
	if root == nil {
		return new(big.Int).Set(core.finalWays[core.c.Start])
	}
	m := core.nodeMatrix(root)
	total := new(big.Int)
	var tmp big.Int
	nq := core.nq
	for q := 0; q < nq; q++ {
		v := m[core.c.Start*nq+q]
		if v == nil || v.Sign() == 0 || core.finalWays[q].Sign() == 0 {
			continue
		}
		tmp.Mul(v, core.finalWays[q])
		total.Add(total, &tmp)
	}
	return total
}
