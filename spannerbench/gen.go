package main

// Seeded input generation. Every document, edit and operation sequence
// is a pure function of the --seed argument, so the same seed gives
// byte-identical inputs. What a run's cost depends on most — document
// sizes and kinds, and the order of the operations — is fixed per
// workload; the seed varies the text of the documents, the positions of
// the edits and the arrival times. A run then measures the system, not
// the luck of the draw: a few heavy requests more or less would move
// the closed loop's throughput by more than any bound could allow.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strings"
)

// alphabet is the document alphabet every query is compiled with: the
// letters, digits and separators the generators emit.
const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 =:\n"

// newRand returns a generator for one named input stream of a seed.
// Streams are independent, so adding a stream never shifts another.
func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// stratifiedSizes returns n sizes at fixed log-uniform quantiles of
// [lo, hi], rounded to 64 bytes: the same multiset for every seed.
func stratifiedSizes(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		f := (float64(i) + 0.5) / float64(n)
		sz := float64(lo) * math.Pow(float64(hi)/float64(lo), f)
		out[i] = int(sz) &^ 63
	}
	return out
}

// abText is uniformly random text over {a, b}: the dense query finds a
// match at about a quarter of the positions (~1k tuples per 4 KiB).
func abText(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + byte(r.IntN(2))
	}
	return b
}

// vocabulary is a fixed word list (independent of the seed), indexed by
// Zipf rank in logText.
var vocabulary = func() []string {
	r := rand.New(rand.NewPCG(0, 0))
	words := make([]string, 512)
	for i := range words {
		n := 2 + r.IntN(7)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte("abcdefghijklmnopqrstuvwxyz"[r.IntN(26)])
		}
		words[i] = sb.String()
	}
	return words
}()

// levels are the log levels of consecutive lines, cycled: errors are
// rare (one line in 32), so the selective query stays selective on
// log-like text, and a text's number of error lines follows its length
// rather than the seed.
var levels = func() []string {
	l := []string{"error", "warn", "warn", "warn"}
	for len(l) < 20 {
		l = append(l, "info")
	}
	for len(l) < 32 {
		l = append(l, "debug")
	}
	return l
}()

// logText is log-like text: timestamped lines with a level, a user and
// a message of Zipf-distributed words, cut to exactly n bytes.
func logText(r *rand.Rand, n int) []byte {
	zipf := rand.NewZipf(r, 1.2, 1, uint64(len(vocabulary)-1))
	var sb strings.Builder
	sb.Grow(n + 128)
	for t := 0; sb.Len() < n; t++ {
		fmt.Fprintf(&sb, "t=%06d lvl=%s user=u%d msg=", t, levels[t%len(levels)], r.IntN(200))
		words := 3 + r.IntN(8)
		for w := 0; w < words; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(vocabulary[zipf.Uint64()])
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String()[:n])
}

// docSpec is one generated document.
type docSpec struct {
	name string
	data []byte
}

// structureSeed seeds what is fixed per workload: which size each
// document has and the operation sequence.
const structureSeed = 1

// plainCorpus returns n documents, alternating random ab text and
// log-like text. Each kind has its own stratified sizes in [lo, hi]
// bytes, assigned to document names in a fixed order; the seed only
// chooses the text.
func plainCorpus(seed uint64, prefix string, n, lo, hi int) []docSpec {
	r := newRand(seed, "corpus/"+prefix)
	fixed := newRand(structureSeed, "sizes/"+prefix)
	var kinds [2][]int
	for k := range kinds {
		kinds[k] = stratifiedSizes((n+1-k)/2, lo, hi)
		fixed.Shuffle(len(kinds[k]), func(i, j int) { kinds[k][i], kinds[k][j] = kinds[k][j], kinds[k][i] })
	}
	docs := make([]docSpec, n)
	for i := range docs {
		size := kinds[i%2][i/2]
		var data []byte
		if i%2 == 0 {
			data = abText(r, size)
		} else {
			data = logText(r, size)
		}
		docs[i] = docSpec{name: fmt.Sprintf("%s%02d", prefix, i), data: data}
	}
	return docs
}

// querySpec is one registered query.
type querySpec struct {
	name string
	src  string
	// regular queries fuse into one scan and so have a compressed index;
	// the core query does not.
	regular bool
}

// queries are the three registered queries: a dense regular query, a
// selective extractor, and a core query whose string-equality selection
// keeps it from fusing into one scan.
var queries = []querySpec{
	{name: "dense", src: `.*!x{ab}.*`, regular: true},
	{name: "sel", src: `.*!x{(abbbba|lvl=error)}.*`, regular: true},
	{name: "core", src: `project(x; seleq(x,y; join(.*!x{a[ab][ab][ab]b}!y{[ab][ab][ab][ab][ab]}.*; .*!y{[ab]*b}.*)))`},
}

func querySpecJSON(q querySpec) string {
	return fmt.Sprintf(`{"src": %q, "alphabet": %q}`, q.src, alphabet)
}

// editSeq is a deterministic sequence of CDE edits on one document:
// inserts of a factor of a source document alternating with deletes,
// keeping the document near its initial length. Positions are valid
// when the edits apply in order.
type editSeq struct {
	target, source string
	length, srcLen int64
	initial        int64
	r              *rand.Rand
	ops            int
}

func newEditSeq(seed uint64, stream, target, source string, length, srcLen int64) *editSeq {
	return &editSeq{target: target, source: source, length: length, srcLen: srcLen, initial: length, r: newRand(seed, "edits/"+stream)}
}

// next returns the next CDE expression and advances the modelled length.
func (e *editSeq) next() string {
	e.ops++
	m := int64(8 + e.r.IntN(57))
	if e.length > e.initial || e.ops%2 == 0 {
		i := 1 + e.r.Int64N(e.length-m)
		e.length -= m
		return fmt.Sprintf("delete(%s, %d, %d)", e.target, i, i+m-1)
	}
	i := 1 + e.r.Int64N(e.srcLen-m)
	k := 1 + e.r.Int64N(e.length)
	e.length += m
	return fmt.Sprintf("insert(%s, extract(%s, %d, %d), %d)", e.target, e.source, i, i+m-1, k)
}
