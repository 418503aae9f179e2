package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"docspanner"
)

// The same seed must give byte-identical inputs; another seed must give
// other text but the same sizes and operation sequence.
func TestInputsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := wl.gen(7), wl.gen(7), wl.gen(8)
		if inputsDigest(a) != inputsDigest(b) {
			t.Errorf("%s: seed 7 gave two different inputs", wl.name)
		}
		if inputsDigest(a) == inputsDigest(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", wl.name)
		}
		if got, want := sizes(a), sizes(c); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: document sizes depend on the seed: %v vs %v", wl.name, got, want)
		}
		if got, want := opsDigest(a), opsDigest(c); got != want {
			t.Errorf("%s: the operation sequence depends on the seed", wl.name)
		}
	}
}

func sizes(in *inputs) []int {
	var out []int
	for _, d := range append(append([]docSpec(nil), in.plain...), in.compressed...) {
		out = append(out, len(d.data))
	}
	sort.Ints(out)
	return out
}

func opsDigest(in *inputs) string {
	var sb strings.Builder
	for _, o := range in.ops {
		fmt.Fprintf(&sb, "%s|%s|%s|%v|%d|%v|%d\n", o.kind, o.doc, o.query, o.docs, o.limit, o.content, len(o.body))
	}
	return sb.String()
}

// The edit lane's expressions are valid in order: replaying them in the
// library never leaves the document.
func TestEditSequenceValid(t *testing.T) {
	in := genWriteMix(3)
	or, err := buildOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	db := docspanner.NewDocDB()
	for _, d := range in.compressed {
		db.Add(d.name, or.docs[d.name])
	}
	doc, err := applyExprs(db, in.built[0])
	if err != nil {
		t.Fatal(err)
	}
	seq := in.newLane()
	for i := 0; i < 200; i++ {
		e := seq.next()
		if doc, err = db.Edit("big", e); err != nil {
			t.Fatalf("edit %d %s: %v", i, e, err)
		}
		if doc.Len() != seq.length {
			t.Fatalf("edit %d: length %d, modelled %d", i, doc.Len(), seq.length)
		}
	}
}

// The oracle rejects a wrong answer: a changed count, a missing tuple,
// and a span whose content does not match the document.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	in := genReadPlain(1)
	in.plain = in.plain[:2]
	or, err := buildOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	w := &runner{or: or}
	doc := in.plain[0].name
	e, _ := or.get(doc, "dense")
	if e.count == 0 {
		t.Fatal("dense query has no tuples on an ab document")
	}
	o := &op{kind: "eval", doc: doc, query: "dense"}
	good := []byte(fmt.Sprintf(`{"count": %d, "tuples": []}`, e.count))
	if out := w.check(o, exchange{status: 200, body: good}, nil); out.err != nil {
		t.Fatalf("right count rejected: %v", out.err)
	}
	bad := []byte(fmt.Sprintf(`{"count": %d, "tuples": []}`, e.count+1))
	if out := w.check(o, exchange{status: 200, body: bad}, nil); out.err == nil {
		t.Fatal("wrong count accepted")
	}

	keys := keysOf(or.qs["dense"].Eval(in.plain[0].data))
	var tuples []jsonTuple
	for _, k := range keys {
		var b, e int
		fmt.Sscanf(k, "x:%d-%d", &b, &e)
		content := "ab"
		tuples = append(tuples, jsonTuple{"x": {Begin: b, End: e, Content: &content}})
	}
	if err := or.verifyTuples(doc, "dense", tuples); err != nil {
		t.Fatalf("the library's own tuples rejected: %v", err)
	}
	if err := or.verifyTuples(doc, "dense", tuples[1:]); err == nil {
		t.Fatal("a missing tuple accepted")
	}
	wrong := "ba"
	tuples[0]["x"] = jsonSpan{Begin: tuples[0]["x"].Begin, End: tuples[0]["x"].End, Content: &wrong}
	if err := or.verifyTuples(doc, "dense", tuples); err == nil {
		t.Fatal("wrong span content accepted")
	}
}

// A merged stream's done:false is tolerated only for the coordinator's
// own cancellation after the limit was reached.
func TestMergedStreamTrailer(t *testing.T) {
	in := genClusterFanout(1)
	in.plain = in.plain[:2]
	or, err := buildOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	w := &runner{or: or, docNames: []string{in.plain[0].name, in.plain[1].name}}
	o := &op{kind: "stream", query: "dense", docs: []string{"*"}, limit: 10}
	body := func(trailer string) []byte {
		return []byte(strings.Repeat("{}\n", 10) + trailer + "\n")
	}
	cases := []struct {
		trailer         string
		wrong, spurious bool
	}{
		{`{"done":true,"count":10}`, false, false},
		{`{"done":false,"count":10,"errors":[{"error":"context canceled"}]}`, false, true},
		{`{"done":false,"count":10,"errors":[{"error":"worker down"}]}`, true, false},
		{`{"done":true,"count":9}`, true, false},
	}
	for _, c := range cases {
		out := w.check(o, exchange{status: 200, body: body(c.trailer)}, nil)
		if (out.err != nil) != c.wrong || out.defect != c.spurious {
			t.Errorf("%s: err=%v defect=%v, want wrong=%v defect=%v", c.trailer, out.err, out.defect, c.wrong, c.spurious)
		}
	}
}

func TestCoverage(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := coverage(p, kids); got != 40 {
		t.Fatalf("coverage = %d, want 40", got)
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	a := &result{Workload: "read-plain", Provenance: provenance{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", CPUModel: "x"},
		Metrics: map[string]metric{"latency_p50_ms": {1, "ms"}}}
	b := *a
	b.Provenance.CPUModel = "y"
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeResult(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := writeResult(pb, &b); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := compareResults(pa, pb, &out, &errb); code != 3 {
		t.Fatalf("different hosts: exit %d, want 3 (%s)", code, errb.String())
	}
	if code := compareResults(pa, pa, &out, &errb); code != 0 {
		t.Fatalf("same host: exit %d (%s)", code, errb.String())
	}
}

// A short run of every workload answers correctly, and the counters
// that should repeat exactly do.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			dir := t.TempDir()
			a, err := runBench(wl, 5, 1, false, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Correct || a.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", a.Correct, a.Failed, a.Errors)
			}
			b, err := runBench(wl, 5, 1, false, dir)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range a.Counters {
				if b.Counters[k] != v {
					t.Errorf("counter %s: %d then %d", k, v, b.Counters[k])
				}
			}
		})
	}
}

func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	dir := t.TempDir()
	wl, _ := findWorkload("cluster-fanout")
	start := time.Now()
	res, err := runBench(wl, 2, 2, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run incorrect: %v", res.Errors)
	}
	want := []string{"ladder.residual_frac", "trace.overhead_frac", "cluster.hop_us", "storage.append_us", "views.refresh_us", "server.handler_self_us.eval"}
	for _, k := range want {
		if _, ok := res.Metrics[k]; !ok {
			t.Errorf("traced run lacks %s", k)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace-cluster-fanout-seed2.jsonl")); err != nil {
		t.Errorf("spans not written: %v", err)
	}
	t.Logf("traced run took %v", time.Since(start))
}
