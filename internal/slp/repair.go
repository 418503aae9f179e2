package slp

import "slices"

// Re-Pair grammar compression (Larsson & Moffat): repeatedly replace the
// most frequent adjacent symbol pair with a fresh nonterminal until no
// pair occurs twice. The resulting grammar is an SLP; the survey
// (Section 4) treats such practical compressors as the standard way
// documents arrive in SLP form. Computing a *smallest* SLP is NP-complete
// (the survey cites Charikar et al. and Casel et al.), so a greedy
// compressor is the right tool.
//
// The rule each round applies is fixed: the pair with the highest count
// wins, and a tie goes to the smallest pair (l, r) in lexicographic
// order of symbol ids (terminals 0..255, then nonterminals in creation
// order). Occurrences inside a run of one symbol are counted and
// replaced greedily from the left without overlap, so "aaaa" holds two
// "aa" and "aaa" one.
//
// The implementation is incremental. The sequence is a doubly linked
// list over the input positions; every counted pair occurrence sits in
// its pair's occurrence list; and the pairs with count ≥ 2 sit in a
// binary max-heap keyed on (count descending, (l, r) ascending), so the
// heap top is exactly the pair the rule picks. A round rewrites only the
// chosen pair's occurrences and re-examines their neighbours. Inside a
// run the counted occurrences alternate, so a change at a run's left
// end can flip the alternation further right; that relinking walks on
// only while the counted/uncounted status actually changes. A run of s
// flips only when the chosen pair (t, s) takes its first symbol; that
// pair's count is then at least the (s, s) count, which is at least
// half the run's length unless the run is at most three long, so the
// flips of a round cost O(its occurrences) too. Every round
// removes as many positions as it has occurrences, so the total number
// of occurrence-list and heap updates is O(n), each heap update costs
// O(log n), and the whole compression runs in O(n log n).
//
// Frequency buckets (Larsson & Moffat's linear-time variant) would drop
// the log factor but cannot break ties by pair order without rescanning
// a bucket, and the grammar — which snapshots, WAL replay and the memo
// counts of every compressed document depend on — must not depend on
// the implementation.

// Compress builds an SLP for doc with Re-Pair. The result is NOT
// necessarily balanced; apply Balance before using algorithms that need
// strong balance or shallowness. Returns nil for the empty document.
func Compress(doc []byte) *Node {
	if len(doc) == 0 {
		return nil
	}
	g := newRepair(doc)
	g.run()
	return g.materialize()
}

// Position states beyond a pair-record index (≥ 0, the position's pair
// occurrence is counted and linked into that record's list).
const (
	posFree    = -1 // pair not counted, last position, or removed
	posPending = -2 // pair rewritten this round, not yet relinked
)

// pairRec is one distinct adjacent pair (l, r) and its counted
// occurrences.
type pairRec struct {
	l, r  int32
	count int32
	head  int32 // first occurrence in the list, -1 when empty
	hpos  int32 // index in the heap, -1 when not in it
}

type repairRule struct{ l, r int32 }

// repair is the state of one incremental Re-Pair run.
type repair struct {
	sym        []int32 // symbol at each position: 0..255 terminals, ≥ 256 rules
	prev, next []int32 // sequence links over alive positions, -1 at the ends
	at         []int32 // pair record of each position, or a pos* state
	oprev      []int32 // occurrence-list links; a position is in at most
	onext      []int32 // one list, that of the pair starting at it

	pairs map[uint64]int32 // (l, r) → record index
	recs  []pairRec
	free  []int32 // indices of emptied records, for reuse
	heap  []int32 // record indices with count ≥ 2

	rules []repairRule
	occ   []int32 // scratch: the chosen pair's occurrences

	// work counts count changes, each one occurrence-list update and one
	// heap update; the complexity-shape test holds it to c·n.
	work int
}

func newRepair(doc []byte) *repair {
	n := len(doc)
	g := &repair{
		sym:   make([]int32, n),
		prev:  make([]int32, n),
		next:  make([]int32, n),
		at:    make([]int32, n),
		oprev: make([]int32, n),
		onext: make([]int32, n),
		pairs: make(map[uint64]int32),
	}
	for i, b := range doc {
		g.sym[i] = int32(b)
		g.prev[i] = int32(i) - 1
		g.next[i] = int32(i) + 1
		g.at[i] = posFree
	}
	g.next[n-1] = -1
	for i := range g.sym {
		g.settle(int32(i))
	}
	return g
}

// run performs replacement rounds until no pair occurs twice.
func (g *repair) run() {
	for len(g.heap) > 0 {
		g.round()
	}
}

// round replaces every counted occurrence of the heap's top pair with a
// fresh rule symbol.
func (g *repair) round() {
	best := &g.recs[g.heap[0]]
	a, b := best.l, best.r
	x := int32(256 + len(g.rules))
	g.rules = append(g.rules, repairRule{a, b})

	occ := g.occ[:0]
	for p := best.head; p >= 0; p = g.onext[p] {
		occ = append(occ, p)
	}
	slices.Sort(occ)
	g.occ = occ

	// Every pair overlapping an occurrence disappears: the one ending
	// at its left half, the occurrence itself, the one starting at
	// its right half.
	for _, o := range occ {
		if p := g.prev[o]; p >= 0 {
			g.unlink(p)
		}
		g.unlink(o)
		g.unlink(g.next[o])
	}
	// Rewrite: the left half becomes x, the right half leaves the
	// sequence.
	for _, o := range occ {
		j := g.next[o]
		g.sym[o] = x
		nj := g.next[j]
		g.next[o] = nj
		if nj >= 0 {
			g.prev[nj] = o
		}
	}
	// The positions whose pair changed: each x and its left
	// neighbour (unless that is an x too).
	for _, o := range occ {
		g.at[o] = posPending
		if p := g.prev[o]; p >= 0 && g.sym[p] != x {
			g.at[p] = posPending
		}
	}
	// Relink them left to right, so each sees its final left context.
	for _, o := range occ {
		if p := g.prev[o]; p >= 0 && g.sym[p] != x {
			g.relink(p)
		}
		g.relink(o)
	}
}

// counted reports whether the pair starting at alive position p is
// counted: every pair of two distinct symbols is, and inside a run of
// one symbol every other pair is, starting from the run's left end.
func (g *repair) counted(p int32) bool {
	q := g.next[p]
	if q < 0 {
		return false
	}
	s := g.sym[p]
	if g.sym[q] != s {
		return true
	}
	pp := g.prev[p]
	return pp < 0 || g.sym[pp] != s || g.at[pp] < 0
}

// settle brings p's link state in line with counted and reports whether
// it changed.
func (g *repair) settle(p int32) bool {
	want := g.counted(p)
	if want == (g.at[p] >= 0) {
		return false
	}
	if want {
		g.link(p)
	} else {
		g.unlink(p)
	}
	return true
}

// relink links pending position p if its new pair is counted, then
// walks right while the neighbours' counted status flips (a run whose
// left context changed), stopping at the next pending position.
func (g *repair) relink(p int32) {
	g.at[p] = posFree
	g.settle(p)
	for q := g.next[p]; q >= 0 && g.at[q] != posPending && g.settle(q); q = g.next[q] {
	}
}

func pairKey(l, r int32) uint64 { return uint64(uint32(l))<<32 | uint64(uint32(r)) }

// link adds p's pair occurrence to its record's list.
func (g *repair) link(p int32) {
	l, r := g.sym[p], g.sym[g.next[p]]
	k := pairKey(l, r)
	ri, ok := g.pairs[k]
	if !ok {
		if n := len(g.free); n > 0 {
			ri = g.free[n-1]
			g.free = g.free[:n-1]
		} else {
			ri = int32(len(g.recs))
			g.recs = append(g.recs, pairRec{})
		}
		g.recs[ri] = pairRec{l: l, r: r, head: -1, hpos: -1}
		g.pairs[k] = ri
	}
	rec := &g.recs[ri]
	g.oprev[p] = -1
	g.onext[p] = rec.head
	if rec.head >= 0 {
		g.oprev[rec.head] = p
	}
	rec.head = p
	g.at[p] = ri
	g.touch(ri, 1)
}

// unlink removes p's pair occurrence from its record's list; a no-op
// when p is not linked.
func (g *repair) unlink(p int32) {
	ri := g.at[p]
	if ri < 0 {
		return
	}
	rec := &g.recs[ri]
	op, on := g.oprev[p], g.onext[p]
	if op >= 0 {
		g.onext[op] = on
	} else {
		rec.head = on
	}
	if on >= 0 {
		g.oprev[on] = op
	}
	g.at[p] = posFree
	g.touch(ri, -1)
}

// touch applies a change to ri's count and restores its heap position
// at once, so the heap is valid between any two updates; a record left
// without occurrences is recycled.
func (g *repair) touch(ri, delta int32) {
	g.work++
	rec := &g.recs[ri]
	rec.count += delta
	switch {
	case rec.count >= 2 && rec.hpos < 0:
		rec.hpos = int32(len(g.heap))
		g.heap = append(g.heap, ri)
		g.up(int(rec.hpos))
	case rec.count >= 2 && delta > 0:
		g.up(int(rec.hpos))
	case rec.count >= 2:
		g.down(int(rec.hpos))
	case rec.hpos >= 0:
		g.heapRemove(int(rec.hpos))
	}
	if rec.count == 0 {
		delete(g.pairs, pairKey(rec.l, rec.r))
		g.free = append(g.free, ri)
	}
}

// before is the heap order: higher count first, then the smaller pair.
func (g *repair) before(i, j int) bool {
	a, b := &g.recs[g.heap[i]], &g.recs[g.heap[j]]
	if a.count != b.count {
		return a.count > b.count
	}
	if a.l != b.l {
		return a.l < b.l
	}
	return a.r < b.r
}

func (g *repair) swap(i, j int) {
	h := g.heap
	h[i], h[j] = h[j], h[i]
	g.recs[h[i]].hpos = int32(i)
	g.recs[h[j]].hpos = int32(j)
}

func (g *repair) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !g.before(i, p) {
			return
		}
		g.swap(i, p)
		i = p
	}
}

// down sifts i towards the leaves and reports whether it moved.
func (g *repair) down(i int) bool {
	start, n := i, len(g.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && g.before(c+1, c) {
			c++
		}
		if !g.before(c, i) {
			break
		}
		g.swap(i, c)
		i = c
	}
	return i > start
}

func (g *repair) heapRemove(i int) {
	last := len(g.heap) - 1
	g.recs[g.heap[i]].hpos = -1
	if i != last {
		g.heap[i] = g.heap[last]
		g.recs[g.heap[i]].hpos = int32(i)
	}
	g.heap = g.heap[:last]
	if i != last && !g.down(i) {
		g.up(i)
	}
}

// materialize builds the nodes: terminals are leaves, each rule one
// shared pair node, and the final sequence a balanced fold.
func (g *repair) materialize() *Node {
	nodes := make([]*Node, 256+len(g.rules))
	for b := 0; b < 256; b++ {
		nodes[b] = Leaf(byte(b))
	}
	for i, r := range g.rules {
		nodes[256+i] = Pair(nodes[r.l], nodes[r.r])
	}
	var seq []int32
	for p := int32(0); p >= 0; p = g.next[p] {
		seq = append(seq, g.sym[p])
	}
	var fold func(lo, hi int) *Node
	fold = func(lo, hi int) *Node {
		if hi-lo == 1 {
			return nodes[seq[lo]]
		}
		mid := (lo + hi) / 2
		return Pair(fold(lo, mid), fold(mid, hi))
	}
	return fold(0, len(seq))
}
