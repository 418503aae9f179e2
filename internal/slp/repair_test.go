package slp

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// compressRescan is the reference Re-Pair the incremental Compress must
// reproduce node for node: it rescans the whole sequence with a fresh
// count map for every rule, so its O(n · rounds) cost is fine only for
// test inputs. It is the test oracle, not a second code path.
func compressRescan(doc []byte) *Node {
	if len(doc) == 0 {
		return nil
	}
	seq := make([]int32, len(doc))
	for i, b := range doc {
		seq[i] = int32(b)
	}
	type rule struct{ l, r int32 }
	var rules []rule
	next := int32(256)

	counts := make(map[[2]int32]int32)
	for len(seq) > 1 {
		clear(counts)
		var best [2]int32
		bestCount := int32(1)
		prevPair := [2]int32{-1, -1}
		for i := 0; i+1 < len(seq); i++ {
			p := [2]int32{seq[i], seq[i+1]}
			// Avoid counting overlapping occurrences (aaa has one "aa").
			if p == prevPair && p[0] == p[1] {
				prevPair = [2]int32{-1, -1}
				continue
			}
			prevPair = p
			counts[p]++
			if counts[p] > bestCount || (counts[p] == bestCount && pairLess(p, best)) {
				best = p
				bestCount = counts[p]
			}
		}
		if bestCount < 2 {
			break
		}
		// Replace non-overlapping occurrences of best left to right.
		sym := next
		next++
		rules = append(rules, rule{best[0], best[1]})
		out := seq[:0]
		for i := 0; i < len(seq); {
			if i+1 < len(seq) && seq[i] == best[0] && seq[i+1] == best[1] {
				out = append(out, sym)
				i += 2
			} else {
				out = append(out, seq[i])
				i++
			}
		}
		seq = out
	}

	nodes := make([]*Node, int(next))
	for b := 0; b < 256; b++ {
		nodes[b] = Leaf(byte(b))
	}
	for i, r := range rules {
		nodes[256+i] = Pair(nodes[r.l], nodes[r.r])
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

func pairLess(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// sameDAG reports (with the first difference) whether a and b are the
// same grammar node for node: a bijection between their nodes that maps
// leaves to equal leaves and children to children, so both the rules
// and their sharing agree.
func sameDAG(a, b *Node) error {
	fwd := map[*Node]*Node{}
	back := map[*Node]*Node{}
	var walk func(x, y *Node, path string) error
	walk = func(x, y *Node, path string) error {
		if x == nil || y == nil {
			if x != y {
				return fmt.Errorf("%s: nil vs non-nil", path)
			}
			return nil
		}
		if m, ok := fwd[x]; ok {
			if m != y {
				return fmt.Errorf("%s: sharing differs", path)
			}
			return nil
		}
		if _, ok := back[y]; ok {
			return fmt.Errorf("%s: sharing differs", path)
		}
		if x.IsLeaf() != y.IsLeaf() || x.Len() != y.Len() {
			return fmt.Errorf("%s: shape differs (len %d vs %d)", path, x.Len(), y.Len())
		}
		if x.IsLeaf() && x.LeafByte() != y.LeafByte() {
			return fmt.Errorf("%s: leaf %q vs %q", path, x.LeafByte(), y.LeafByte())
		}
		fwd[x], back[y] = y, x
		if x.IsLeaf() {
			return nil
		}
		if err := walk(x.Left(), y.Left(), path+"L"); err != nil {
			return err
		}
		return walk(x.Right(), y.Right(), path+"R")
	}
	return walk(a, b, "root")
}

// logLike returns n bytes of synthetic log text: repeated field names,
// a few hosts and levels, and varying numbers.
func logLike(rng *rand.Rand, n int) []byte {
	hosts := []string{"web-1", "web-2", "db-1", "cache-7"}
	levels := []string{"INFO", "WARN", "ERROR", "DEBUG"}
	msgs := []string{"request served", "slow query", "cache miss", "connection reset", "user login"}
	var b bytes.Buffer
	for b.Len() < n {
		fmt.Fprintf(&b, "2022-06-%02d %02d:%02d:%02d host=%s level=%s msg=%q latency_ms=%d\n",
			1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
			hosts[rng.Intn(len(hosts))], levels[rng.Intn(len(levels))],
			msgs[rng.Intn(len(msgs))], rng.Intn(5000))
	}
	return b.Bytes()[:n]
}

func randomBytes(rng *rand.Rand, n int, alphabet string) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return b
}

// runHeavy returns inputs dominated by runs, where the left-greedy
// non-overlapping count and the relinking through runs matter most.
func runHeavy(rng *rand.Rand, n int) [][]byte {
	var mixed bytes.Buffer
	for mixed.Len() < n {
		mixed.WriteString(strings.Repeat(string("abx"[rng.Intn(3)]), 1+rng.Intn(9)))
	}
	return [][]byte{
		bytes.Repeat([]byte("a"), n),
		bytes.Repeat([]byte("ab"), n/2),
		append([]byte("x"), bytes.Repeat([]byte("a"), n-1)...),
		append(bytes.Repeat([]byte("a"), n-1), 'x'),
		bytes.Repeat([]byte("aab"), n/3),
		mixed.Bytes()[:n],
	}
}

func checkSameAsRescan(t *testing.T, name string, doc []byte) {
	t.Helper()
	got := Compress(doc)
	if !bytes.Equal(got.Bytes(), doc) {
		t.Fatalf("%s: Compress does not round-trip", name)
	}
	if err := sameDAG(got, compressRescan(doc)); err != nil {
		t.Fatalf("%s (len %d): grammar differs from the rescan oracle: %v", name, len(doc), err)
	}
}

// TestCompressMatchesRescan: the incremental Re-Pair builds exactly the
// rescan's grammar — same rules, same sharing, same final fold.
func TestCompressMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Every input of 1–3 bytes over a three-letter alphabet.
	for n := 1; n <= 3; n++ {
		total := 1
		for i := 0; i < n; i++ {
			total *= 3
		}
		for c := 0; c < total; c++ {
			doc := make([]byte, n)
			for i, v := 0, c; i < n; i, v = i+1, v/3 {
				doc[i] = "abc"[v%3]
			}
			checkSameAsRescan(t, "tiny "+string(doc), doc)
		}
	}
	for _, n := range []int{2, 5, 17, 64, 300, 1000, 4096} {
		for i, doc := range runHeavy(rng, n) {
			checkSameAsRescan(t, fmt.Sprintf("run-heavy #%d", i), doc)
		}
	}
	for i := 0; i < 600; i++ {
		n := 1 + rng.Intn(400)
		alpha := []string{"ab", "abc", "aaab", "abcdefgh"}[i%4]
		checkSameAsRescan(t, "random "+alpha, randomBytes(rng, n, alpha))
	}
	for _, n := range []int{100, 1024, 4096, 16 << 10} {
		checkSameAsRescan(t, "log-like", logLike(rng, n))
		checkSameAsRescan(t, "random bytes", randomBytes(rng, n/4, "abcdefghijklmnopqrstuvwxyz0123456789"))
	}
}

// FuzzCompress: every input round-trips, and up to 4 KiB the grammar is
// the rescan oracle's node for node.
func FuzzCompress(f *testing.F) {
	for _, s := range []string{"", "a", "aa", "aaa", "aaaa", "abab", "xaaaa", "aabaab", "abcabcabc", "hello hello world"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got := Compress(doc)
		if !bytes.Equal(got.Bytes(), doc) && len(doc) > 0 {
			t.Fatalf("round trip failed for %q", doc)
		}
		if len(doc) <= 4096 {
			if err := sameDAG(got, compressRescan(doc)); err != nil {
				t.Fatalf("grammar differs from the rescan oracle on %q: %v", doc, err)
			}
		}
	})
}

// TestCompressWorkIsLinear pins the complexity shape: occurrence-list
// and heap updates stay within c·n from 4 to 256 KiB on random,
// log-like and run-heavy inputs (the rescan did O(n) work per rule).
func TestCompressWorkIsLinear(t *testing.T) {
	const c = 12
	rng := rand.New(rand.NewSource(3))
	for _, kib := range []int{4, 16, 64, 256} {
		n := kib << 10
		inputs := map[string][]byte{
			"random":   randomBytes(rng, n, "abcdefghijklmnopqrstuvwxyz"),
			"log-like": logLike(rng, n),
		}
		for i, doc := range runHeavy(rng, n) {
			inputs[fmt.Sprintf("run-heavy #%d", i)] = doc
		}
		for name, doc := range inputs {
			g := newRepair(doc)
			g.run()
			t.Logf("%s %d KiB: work/n = %.2f", name, kib, float64(g.work)/float64(len(doc)))
			if g.work > c*len(doc) {
				t.Errorf("%s %d KiB: %d list/heap updates, want ≤ %d·n = %d", name, kib, g.work, c, c*len(doc))
			}
			if got := g.materialize(); !bytes.Equal(got.Bytes(), doc) {
				t.Fatalf("%s %d KiB: round trip failed", name, kib)
			}
		}
	}
}

// BenchmarkCompress times Re-Pair on log-like text at 4–256 KiB, and
// the rescan oracle up to 64 KiB (it is quadratic: seconds at 256 KiB).
func BenchmarkCompress(b *testing.B) {
	for _, kib := range []int{4, 16, 64, 256} {
		doc := logLike(rand.New(rand.NewSource(1)), kib<<10)
		b.Run(fmt.Sprintf("incremental/%dKiB", kib), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Compress(doc)
			}
		})
		if kib <= 64 {
			b.Run(fmt.Sprintf("rescan/%dKiB", kib), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					compressRescan(doc)
				}
			})
		}
	}
}
