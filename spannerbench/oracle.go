package main

// The correctness oracle. Before any load, the library computes the
// expected count and tuples of every (document, query) pair the
// workload touches — from the generated inputs, never from the server.
// During the run every response's count is checked inline; a
// deterministic sample of responses keeps its body, and after timing
// stops those bodies are parsed and their tuples compared with the
// library's. A wrong answer fails the run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"docspanner"
	"docspanner/internal/qsyntax"
)

// tupleKey renders a tuple canonically: variables in order, 1-based
// end-exclusive spans.
func tupleKey(t docspanner.Tuple) string {
	vars := make([]string, 0, len(t))
	for v := range t {
		vars = append(vars, string(v))
	}
	sort.Strings(vars)
	var sb strings.Builder
	for i, v := range vars {
		if i > 0 {
			sb.WriteByte(';')
		}
		sp := t[docspanner.Var(v)]
		fmt.Fprintf(&sb, "%s:%d-%d", v, sp.Begin, sp.End)
	}
	return sb.String()
}

// digest hashes tuple keys in the given order.
func digest(keys []string) uint64 {
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

func sortedDigest(keys []string) uint64 {
	s := append([]string(nil), keys...)
	sort.Strings(s)
	return digest(s)
}

// expect is the library's answer for one (document, query) pair.
type expect struct {
	count  int
	digest uint64          // of the sorted tuple keys
	set    map[string]bool // tuple keys, kept where membership is checked
	// prefix maps a stream limit to the digest of the first tuples in
	// enumeration order (compressed streams with ?limit=).
	prefix map[int]uint64
}

type dq struct{ doc, query string }

// oracle holds the expected answers and the plain bytes of the
// documents whose span contents are checked.
type oracle struct {
	want  map[dq]*expect
	bytes map[string][]byte
	docs  map[string]*docspanner.Document // compressed and built documents
	qs    map[string]*docspanner.Query
}

func compileQueries() (map[string]*docspanner.Query, error) {
	qs := map[string]*docspanner.Query{}
	for _, q := range queries {
		cq, err := qsyntax.Parse(q.src, docspanner.Options{Alphabet: []byte(alphabet)})
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", q.name, err)
		}
		qs[q.name] = cq
	}
	return qs, nil
}

func newOracle() (*oracle, error) {
	qs, err := compileQueries()
	if err != nil {
		return nil, err
	}
	return &oracle{want: map[dq]*expect{}, bytes: map[string][]byte{}, docs: map[string]*docspanner.Document{}, qs: qs}, nil
}

func keysOf(rel *docspanner.Relation) []string {
	ts := rel.Sorted()
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = tupleKey(t)
	}
	return keys
}

// addPlain records the expected answers of every query on a plain
// document.
func (o *oracle) addPlain(name string, data []byte, withSet bool) {
	o.bytes[name] = data
	for _, q := range queries {
		keys := keysOf(o.qs[q.name].Eval(data))
		e := &expect{count: len(keys), digest: sortedDigest(keys)}
		if withSet {
			e.set = setOf(keys)
		}
		o.want[dq{name, q.name}] = e
	}
}

func setOf(keys []string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

// addCompressed records the expected answers of every query on an
// SLP-compressed document and checks plain against compressed: the
// compressed engine's answer must equal the plain engine's on the
// decompressed text.
func (o *oracle) addCompressed(name string, d *docspanner.Document) error {
	text := d.Bytes()
	o.bytes[name] = text
	o.docs[name] = d
	for _, q := range queries {
		keys := keysOf(o.qs[q.name].Eval(text))
		e := &expect{count: len(keys), digest: sortedDigest(keys)}
		if q.regular {
			if ck := keysOf(o.qs[q.name].EvalCompressed(d)); sortedDigest(ck) != e.digest {
				return fmt.Errorf("oracle: plain and compressed differ on %s/%s: %d vs %d tuples", name, q.name, len(keys), len(ck))
			}
		}
		o.want[dq{name, q.name}] = e
	}
	return nil
}

// addBuilt records the expected counts of the regular queries on a
// large built document, and the first tuples of its compressed
// enumeration for each stream limit. Up to plainLimit bytes, the count
// is also checked against the plain engine on the decompressed text.
func (o *oracle) addBuilt(name string, d *docspanner.Document, limits []int, plainLimit int64) error {
	o.docs[name] = d
	for _, qn := range regularQueries {
		q := o.qs[qn]
		e := &expect{count: q.CountCompressed(d), prefix: map[int]uint64{}}
		if d.Len() <= plainLimit {
			if n := q.Count(d.Bytes()); n != e.count {
				return fmt.Errorf("oracle: plain and compressed counts differ on %s/%s: %d vs %d", name, qn, n, e.count)
			}
		}
		for _, l := range limits {
			var keys []string
			err := q.EnumerateCompressedContext(context.Background(), d, func(t docspanner.Tuple) bool {
				keys = append(keys, tupleKey(t))
				return len(keys) < l
			})
			if err != nil {
				return err
			}
			e.prefix[l] = digest(keys)
		}
		o.want[dq{name, qn}] = e
	}
	return nil
}

func (o *oracle) get(doc, query string) (*expect, error) {
	e, ok := o.want[dq{doc, query}]
	if !ok {
		return nil, fmt.Errorf("oracle has no answer for %s/%s", doc, query)
	}
	return e, nil
}

// jsonSpan is a span as the server renders it.
type jsonSpan struct {
	Begin   int     `json:"begin"`
	End     int     `json:"end"`
	Content *string `json:"content"`
}

type jsonTuple map[string]jsonSpan

// key renders a server tuple like tupleKey, checking span contents
// against the document text when both are present.
func (t jsonTuple) key(text []byte) (string, error) {
	vars := make([]string, 0, len(t))
	for v := range t {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var sb strings.Builder
	for i, v := range vars {
		sp := t[v]
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(v + ":" + strconv.Itoa(sp.Begin) + "-" + strconv.Itoa(sp.End))
		if sp.Content != nil && text != nil {
			if sp.Begin < 1 || sp.End < sp.Begin || sp.End-1 > len(text) {
				return "", fmt.Errorf("span [%d,%d> outside the document", sp.Begin, sp.End)
			}
			if got := string(text[sp.Begin-1 : sp.End-1]); got != *sp.Content {
				return "", fmt.Errorf("span [%d,%d> content %q, document has %q", sp.Begin, sp.End, *sp.Content, got)
			}
		}
	}
	return sb.String(), nil
}

func keysOfJSON(ts []jsonTuple, text []byte) ([]string, error) {
	keys := make([]string, len(ts))
	for i, t := range ts {
		k, err := t.key(text)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// verifyTuples compares a full result with the expected one.
func (o *oracle) verifyTuples(doc, query string, ts []jsonTuple) error {
	e, err := o.get(doc, query)
	if err != nil {
		return err
	}
	keys, err := keysOfJSON(ts, o.bytes[doc])
	if err != nil {
		return fmt.Errorf("%s/%s: %w", doc, query, err)
	}
	if len(keys) != e.count || sortedDigest(keys) != e.digest {
		return fmt.Errorf("%s/%s: %d tuples differ from the library's %d", doc, query, len(keys), e.count)
	}
	return nil
}

// splitLines splits an NDJSON body into its non-empty lines.
func splitLines(body []byte) [][]byte {
	var out [][]byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		line := body
		if i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) > 0 {
			out = append(out, line)
		}
	}
	return out
}

// verifyBody fully checks a kept response body against the oracle.
func (o *oracle) verifyBody(op *op, body []byte) error {
	switch op.kind {
	case "eval":
		var r struct {
			Tuples []jsonTuple `json:"tuples"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("eval body: %w", err)
		}
		return o.verifyTuples(op.doc, op.query, r.Tuples)
	case "batch":
		var r struct {
			Results []struct {
				Doc    string      `json:"doc"`
				Tuples []jsonTuple `json:"tuples"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("batch body: %w", err)
		}
		if len(r.Results) != len(op.docs) {
			return fmt.Errorf("batch: %d results for %d docs", len(r.Results), len(op.docs))
		}
		for i, res := range r.Results {
			if res.Doc != op.docs[i] {
				return fmt.Errorf("batch result %d is %q, want %q", i, res.Doc, op.docs[i])
			}
			if err := o.verifyTuples(res.Doc, op.query, res.Tuples); err != nil {
				return err
			}
		}
		return nil
	case "stream":
		lines := splitLines(body)
		if len(lines) == 0 {
			return fmt.Errorf("stream: empty body")
		}
		lines = lines[:len(lines)-1]
		if op.docs != nil {
			return o.verifyMerged(op, lines)
		}
		ts := make([]jsonTuple, len(lines))
		for i, l := range lines {
			if err := json.Unmarshal(l, &ts[i]); err != nil {
				return fmt.Errorf("stream line: %w", err)
			}
		}
		if op.limit == 0 {
			return o.verifyTuples(op.doc, op.query, ts)
		}
		e, err := o.get(op.doc, op.query)
		if err != nil {
			return err
		}
		keys, err := keysOfJSON(ts, o.bytes[op.doc])
		if err != nil {
			return err
		}
		if want, ok := e.prefix[op.limit]; ok && digest(keys) != want {
			return fmt.Errorf("stream %s/%s limit %d: first tuples differ from the library's", op.doc, op.query, op.limit)
		}
		return nil
	}
	return nil
}

// verifyMerged checks a coordinator's merged stream: every line names a
// document of the request and carries one of that document's tuples,
// and no tuple appears twice.
func (o *oracle) verifyMerged(op *op, lines [][]byte) error {
	seen := map[string]bool{}
	for _, l := range lines {
		var r struct {
			Doc   string    `json:"doc"`
			Tuple jsonTuple `json:"tuple"`
		}
		if err := json.Unmarshal(l, &r); err != nil {
			return fmt.Errorf("merged stream line: %w", err)
		}
		e, err := o.get(r.Doc, op.query)
		if err != nil {
			return err
		}
		k, err := r.Tuple.key(o.bytes[r.Doc])
		if err != nil {
			return err
		}
		if !e.set[k] {
			return fmt.Errorf("merged stream: %s/%s has no tuple %s", r.Doc, op.query, k)
		}
		if seen[r.Doc+"|"+k] {
			return fmt.Errorf("merged stream: tuple %s of %s sent twice", k, r.Doc)
		}
		seen[r.Doc+"|"+k] = true
	}
	return nil
}
