package main

// Checks that need the whole run: the write-mix edit lane replayed in
// the library against every view and /changes answer, and the restart
// from the data directory, which must come back equal to the state
// before it and hold every acknowledged write.

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"docspanner"
	"docspanner/internal/storage"
)

// parseProm reads the samples of a Prometheus text exposition.
func parseProm(body []byte, prefix string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[prefix+line[:i]] += v
		}
	}
	return out
}

// recordSetupCounters records counters that repeat exactly for a seed:
// the inputs' digest and what set-up wrote to the log.
func (s *session) recordSetupCounters(res *result) {
	res.Counters["inputs.digest_low32"] = int64(inputsDigest(s.in) & 0xffffffff)
	res.Counters["inputs.ops"] = int64(len(s.in.ops))
	res.Counters["setup.request_body_bytes"] = s.sent
	st := s.sys.nodes[0].backend.Stats()
	res.Counters["setup.wal_records"] = int64(st.WALRecords)
	res.Counters["setup.wal_bytes"] = int64(st.WALAppendedBytes)
	res.Counters["setup.slpmatch_misses"] = int64(s.setupMisses)
}

// checkLane replays the edit lane in the library and checks every view
// read and /changes answer against the replayed versions.
func (s *session) checkLane() error {
	w := s.run
	db := docspanner.NewDocDB()
	for _, d := range s.in.compressed {
		db.Add(d.name, s.or.docs[d.name])
	}
	doc, err := applyExprs(db, s.in.built[0])
	if err != nil {
		return err
	}
	ix, err := s.or.qs[s.in.view.query].Index()
	if err != nil {
		return err
	}
	ix.Warm(doc)
	counts := map[int]int{w.lane.base: ix.Count(doc)}
	seq := s.in.newLane()
	edits := w.lane.seq.ops
	if w.lane.version != w.lane.base+edits {
		return fmt.Errorf("edit lane: %d edits sent, document at version %d from %d", edits, w.lane.version, w.lane.base)
	}
	for v := w.lane.base + 1; v <= w.lane.version; v++ {
		cur, err := db.Edit(s.in.built[0].name, seq.next())
		if err != nil {
			return fmt.Errorf("edit lane replay: %w", err)
		}
		ix.WarmDelta(doc, cur)
		doc = cur
		counts[v] = ix.Count(doc)
	}
	views, changes := 0, 0
	for _, a := range w.acks {
		switch a.kind {
		case "view":
			want, ok := counts[a.version]
			if !ok || want != a.count {
				return fmt.Errorf("view at version %d counts %d, library replay says %d", a.version, a.count, want)
			}
			views++
		case "changes":
			if counts[a.version]-counts[a.from] != a.added-a.removed {
				return fmt.Errorf("changes %d..%d: +%d -%d, library replay counts %d then %d", a.from, a.version, a.added, a.removed, counts[a.from], counts[a.version])
			}
			changes++
		}
	}
	if views == 0 || changes == 0 {
		return fmt.Errorf("edit lane: no view (%d) or changes (%d) answers were checked", views, changes)
	}
	return nil
}

// docState is one stored document as the server reports it.
type docState struct {
	version int
	length  int64
	hash    uint64
}

func (s *session) docStates() (map[string]docState, error) {
	var list struct {
		Docs []struct {
			Name    string `json:"name"`
			Version int    `json:"version"`
			Len     int64  `json:"len"`
		} `json:"docs"`
	}
	if err := s.sys.call("GET", "/docs", nil, &list); err != nil {
		return nil, err
	}
	out := map[string]docState{}
	c := newCaller(s.sys.client)
	for _, d := range list.Docs {
		x := c.do("GET", s.sys.entry+"/docs/"+d.Name+"?content=1", nil, "")
		if x.err != nil || x.status != http.StatusOK {
			return nil, fmt.Errorf("read %s: HTTP %d %v", d.Name, x.status, x.err)
		}
		out[d.Name] = docState{version: d.Version, length: d.Len, hash: bodyHash(x.body)}
	}
	return out, nil
}

// restartCheck closes the server, reopens its data directory, times
// recovery until /readyz answers 200, and checks the recovered state.
func (s *session) restartCheck(res *result) error {
	before, err := s.docStates()
	if err != nil {
		return err
	}
	var viewBefore, viewAfter struct {
		Version int `json:"version"`
		Count   int `json:"count"`
	}
	vpath := "/docs/" + s.in.view.doc + "/views/" + s.in.view.query
	if err := s.sys.call("GET", vpath, nil, &viewBefore); err != nil {
		return err
	}
	// A snapshot first, as before a planned restart: recovery then loads
	// the grammar-sized snapshot instead of replaying every logged
	// mutation, so its time follows the state, not the run's length.
	if err := s.sys.call("POST", "/admin/snapshot", nil, nil); err != nil {
		return err
	}
	dir := s.sys.dataDir
	s.close()
	stored, err := dirBytes(dir)
	if err != nil {
		return err
	}
	res.extra("stored_bytes_per_user_byte", float64(stored)/float64(s.sent+s.run.sentBytes.Load()), "ratio")

	start := time.Now()
	b, err := openDisk(dir)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", dir, err)
	}
	sys, err := boot(newTracer(), 0, func() (storage.Backend, error) { return b, nil })
	if err != nil {
		b.Close()
		return err
	}
	s.sys = sys
	for {
		resp, err := sys.client.Get(sys.entry + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 60*time.Second {
			return fmt.Errorf("restart: /readyz not ready after 60s")
		}
		time.Sleep(time.Millisecond)
	}
	res.extra("recovery_s", time.Since(start).Seconds(), "s")

	after, err := s.docStates()
	if err != nil {
		return err
	}
	if len(after) != len(before) {
		return fmt.Errorf("restart: %d documents before, %d after", len(before), len(after))
	}
	for name, d := range before {
		if after[name] != d {
			return fmt.Errorf("restart: document %s changed across restart", name)
		}
	}
	if err := s.sys.call("GET", vpath, nil, &viewAfter); err != nil {
		return err
	}
	if viewAfter != viewBefore {
		return fmt.Errorf("restart: view %+v before, %+v after", viewBefore, viewAfter)
	}
	// Every acknowledged put: the last one per document is its content.
	last := map[string]ack{}
	for _, a := range s.run.acks {
		if a.kind == "put" && a.version >= last[a.doc].version {
			last[a.doc] = a
		}
	}
	for name, a := range last {
		d, ok := after[name]
		if !ok || d.version != a.version || d.hash != a.hash {
			return fmt.Errorf("restart: acknowledged put of %s at version %d is missing", name, a.version)
		}
	}
	res.extra("acknowledged_docs_checked", float64(len(last)), "count")
	return nil
}

// inputsDigest hashes every generated document and operation.
func inputsDigest(in *inputs) uint64 {
	var sb strings.Builder
	for _, d := range append(append([]docSpec(nil), in.plain...), in.compressed...) {
		fmt.Fprintf(&sb, "%s:%d:%x\n", d.name, len(d.data), bodyHash(d.data))
	}
	for _, b := range in.built {
		fmt.Fprintf(&sb, "%s:%d:%s\n", b.name, b.length, strings.Join(b.exprs, ";"))
	}
	for _, o := range in.ops {
		fmt.Fprintf(&sb, "%s|%s|%s|%v|%d|%v|%x\n", o.kind, o.doc, o.query, o.docs, o.limit, o.content, bodyHash(o.body))
	}
	if in.newLane != nil {
		seq := in.newLane()
		for i := 0; i < 100; i++ {
			sb.WriteString(seq.next())
		}
	}
	return bodyHash([]byte(sb.String()))
}
