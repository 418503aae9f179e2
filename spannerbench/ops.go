package main

// Operations and their execution: one HTTP exchange per operation,
// timed, with its answer checked inline against the oracle (counts) and
// a deterministic sample kept for the full tuple check after timing.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// op is one generated operation.
type op struct {
	kind    string // eval | stream | count | batch | put | put-compressed | edit | view-get | changes
	doc     string
	query   string
	docs    []string // batch documents; "*" for a merged stream over every document
	limit   int      // stream ?limit=
	content bool
	body    []byte // put bodies
}

var readKinds = map[string]bool{"eval": true, "stream": true, "count": true, "batch": true, "view-get": true, "changes": true}

func (o *op) isWrite() bool { return !readKinds[o.kind] }

func contentParam(c bool) string {
	if c {
		return "1"
	}
	return "0"
}

// request renders the operation as method, path and body. Edits and
// /changes take their expression and version from the edit lane.
func (o *op) request(l *editLane) (string, string, []byte) {
	q := url.Values{}
	switch o.kind {
	case "eval", "count":
		q.Set("query", o.query)
		q.Set("doc", o.doc)
		if o.kind == "eval" {
			q.Set("content", contentParam(o.content))
		}
		return "GET", "/" + o.kind + "?" + q.Encode(), nil
	case "stream":
		q.Set("query", o.query)
		if o.docs != nil {
			q.Set("docs", strings.Join(o.docs, ","))
		} else {
			q.Set("doc", o.doc)
		}
		q.Set("content", contentParam(o.content))
		if o.limit > 0 {
			q.Set("limit", strconv.Itoa(o.limit))
		}
		return "GET", "/stream?" + q.Encode(), nil
	case "batch":
		b, _ := json.Marshal(map[string]any{"query": o.query, "docs": o.docs, "content": o.content})
		return "POST", "/batch", b
	case "put":
		return "PUT", "/docs/" + o.doc, o.body
	case "put-compressed":
		return "PUT", "/docs/" + o.doc + "?compress=1", o.body
	case "edit":
		b, _ := json.Marshal(map[string]string{"expr": l.seq.next()})
		return "POST", "/docs/" + l.seq.target + "/edit", b
	case "view-get":
		return "GET", "/docs/" + o.doc + "/views/" + o.query, nil
	case "changes":
		since := max(l.base, l.version-3)
		return "GET", fmt.Sprintf("/docs/%s/changes?query=%s&since=%d", o.doc, o.query, since), nil
	}
	panic("unknown op kind " + o.kind)
}

// editLane serializes the edits of one document in sequence order,
// across every client: the document a CDE edit applies to is the
// result of the previous edit, so the oracle can replay them.
type editLane struct {
	mu      sync.Mutex
	seq     *editSeq
	base    int // document version before the first lane edit
	version int // last acknowledged version
}

// exchange is one timed HTTP request.
type exchange struct {
	status int
	body   []byte
	sent   time.Time
	first  time.Time // first response line (streams)
	done   time.Time
	err    error
}

// caller issues requests for one client goroutine, reusing its buffer.
type caller struct {
	client *http.Client
	buf    bytes.Buffer
	rd     *bufio.Reader
}

func newCaller(c *http.Client) *caller {
	return &caller{client: c, rd: bufio.NewReaderSize(nil, 64<<10)}
}

func (c *caller) do(method, u string, body []byte, reqID string) exchange {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return exchange{err: err}
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	x := exchange{sent: time.Now()}
	resp, err := c.client.Do(req)
	if err != nil {
		x.err = err
		x.done = time.Now()
		return x
	}
	defer resp.Body.Close()
	x.status = resp.StatusCode
	c.buf.Reset()
	c.rd.Reset(resp.Body)
	line, err := c.rd.ReadSlice('\n')
	x.first = time.Now()
	c.buf.Write(line)
	if err == bufio.ErrBufferFull {
		err = nil
	}
	if err == nil {
		_, err = c.buf.ReadFrom(c.rd)
	} else if err == io.EOF {
		err = nil
	}
	x.done = time.Now()
	x.err = err
	x.body = c.buf.Bytes()
	return x
}

// countField reads the first top-level "count" of a JSON object body
// without decoding the rest (the server writes object keys sorted, so
// "count" precedes the tuples).
func countField(body []byte) (int, error) {
	i := bytes.Index(body, []byte(`"count":`))
	if i < 0 {
		return 0, fmt.Errorf("no count in response")
	}
	rest := bytes.TrimLeft(body[i+len(`"count":`):], " ")
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}

// lastLine returns the final non-empty line of an NDJSON body.
func lastLine(body []byte) []byte {
	body = bytes.TrimRight(body, "\n")
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		return body[i+1:]
	}
	return body
}

// outcome is the checked result of one operation.
type outcome struct {
	tuples int    // result tuples delivered
	err    error  // wrong answer (fails the run)
	note   string // a refused or failed request (counts as failed)
	defect bool   // a merged stream's spurious done:false (see check)
}

// ack is an acknowledged mutation or versioned observation, checked
// after the run.
type ack struct {
	kind    string
	doc     string
	version int
	hash    uint64
	count   int
	from    int
	added   int
	removed int
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// check validates an exchange against the oracle and returns what the
// response delivered. Versioned answers are appended to acks.
func (w *runner) check(o *op, x exchange, acks *[]ack) outcome {
	if x.err != nil {
		return outcome{note: x.err.Error()}
	}
	if x.status != 200 {
		return outcome{note: fmt.Sprintf("%s: HTTP %d: %.200s", o.kind, x.status, x.body)}
	}
	sum := func(docs []string) (int, error) {
		n := 0
		for _, d := range docs {
			e, err := w.or.get(d, o.query)
			if err != nil {
				return 0, err
			}
			n += e.count
		}
		return n, nil
	}
	switch o.kind {
	case "eval", "count", "batch":
		got, err := countField(x.body)
		if err != nil {
			return outcome{err: fmt.Errorf("%s: %w", o.kind, err)}
		}
		var want int
		if o.kind == "batch" {
			want, err = sum(o.docs)
		} else {
			var e *expect
			e, err = w.or.get(o.doc, o.query)
			if e != nil {
				want = e.count
			}
		}
		if err != nil {
			return outcome{err: err}
		}
		if got != want {
			return outcome{err: fmt.Errorf("%s %s/%s: count %d, library says %d", o.kind, o.doc, o.query, got, want)}
		}
		if o.kind == "count" {
			return outcome{}
		}
		return outcome{tuples: got}
	case "stream":
		var tr struct {
			Done   bool `json:"done"`
			Count  int  `json:"count"`
			Errors []struct {
				Error string `json:"error"`
			} `json:"errors"`
		}
		if err := json.Unmarshal(lastLine(x.body), &tr); err != nil {
			return outcome{err: fmt.Errorf("stream trailer: %w", err)}
		}
		var want int
		var err error
		if o.docs != nil {
			want, err = sum(w.docNames)
		} else {
			want, err = sum([]string{o.doc})
		}
		if err != nil {
			return outcome{err: err}
		}
		if o.limit > 0 {
			want = min(want, o.limit)
		}
		if tr.Count != want {
			return outcome{err: fmt.Errorf("stream %s/%s limit %d: trailer count %d, library says %d", o.doc, o.query, o.limit, tr.Count, want)}
		}
		spurious := false
		if !tr.Done {
			// A known coordinator defect: when the merged stream's limit is
			// reached, a shard fetch it cancels itself can be reported as a
			// 502 "context canceled" shard error, so the trailer says
			// done:false although every requested tuple was delivered. It
			// is counted and reported; any other done:false is wrong.
			spurious = o.docs != nil && o.limit > 0 && tr.Count == o.limit && len(tr.Errors) > 0
			for _, e := range tr.Errors {
				spurious = spurious && e.Error == "context canceled"
			}
			if !spurious {
				return outcome{err: fmt.Errorf("stream %s/%s limit %d: trailer done=false: %.300s", o.doc, o.query, o.limit, lastLine(x.body))}
			}
		}
		if n := bytes.Count(x.body, []byte{'\n'}) - 1; n != tr.Count {
			return outcome{err: fmt.Errorf("stream %s/%s: %d lines, trailer says %d", o.doc, o.query, n, tr.Count)}
		}
		return outcome{tuples: tr.Count, defect: spurious}
	case "put", "put-compressed", "edit":
		var r struct {
			Version int   `json:"version"`
			Len     int64 `json:"len"`
		}
		if err := json.Unmarshal(x.body, &r); err != nil {
			return outcome{err: fmt.Errorf("%s response: %w", o.kind, err)}
		}
		if o.kind != "edit" {
			if r.Len != int64(len(o.body)) {
				return outcome{err: fmt.Errorf("%s %s: stored %d bytes of %d", o.kind, o.doc, r.Len, len(o.body))}
			}
			*acks = append(*acks, ack{kind: "put", doc: o.doc, version: r.Version, hash: bodyHash(o.body)})
		}
		return outcome{}
	case "view-get":
		var r struct {
			Version int `json:"version"`
			Count   int `json:"count"`
		}
		if err := json.Unmarshal(x.body, &r); err != nil {
			return outcome{err: fmt.Errorf("view response: %w", err)}
		}
		*acks = append(*acks, ack{kind: "view", doc: o.doc, version: r.Version, count: r.Count})
		return outcome{}
	case "changes":
		var r struct {
			Done    bool `json:"done"`
			From    int  `json:"from"`
			To      int  `json:"to"`
			Added   int  `json:"added"`
			Removed int  `json:"removed"`
		}
		if err := json.Unmarshal(lastLine(x.body), &r); err != nil {
			return outcome{err: fmt.Errorf("changes trailer: %w", err)}
		}
		if n := bytes.Count(x.body, []byte{'\n'}) - 1; !r.Done || n != r.Added+r.Removed {
			return outcome{err: fmt.Errorf("changes: %d lines for %d added + %d removed", n, r.Added, r.Removed)}
		}
		*acks = append(*acks, ack{kind: "changes", doc: o.doc, from: r.From, version: r.To, added: r.Added, removed: r.Removed})
		return outcome{tuples: r.Added + r.Removed}
	}
	return outcome{err: fmt.Errorf("unknown op kind %s", o.kind)}
}
