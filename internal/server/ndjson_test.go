package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"docspanner"
)

// tupleJSON is the test oracle for appendTupleValue: the tuple as maps
// that encoding/json renders as {"x": {"begin": 1, "content": "ab",
// "end": 3}, ...}. Spans are 1-based, end-exclusive; content is
// included when withContent is set and doc is not nil.
func tupleJSON(t docspanner.Tuple, doc []byte, withContent bool) map[string]any {
	out := make(map[string]any, len(t))
	for _, v := range t.Vars() {
		sp := t[v]
		m := map[string]any{"begin": sp.Begin, "end": sp.End}
		if withContent && doc != nil {
			m["content"] = string(sp.Content(doc))
		}
		out[string(v)] = m
	}
	return out
}

// TestAppendTupleMatchesEncodingJSON pins the hand-rolled serializer to
// encoding/json byte for byte: same sorted keys, same escaping. The doc
// is adversarial — HTML characters (escaped to \u003c etc. because the
// Encoder default is EscapeHTML), control bytes, invalid UTF-8, and the
// U+2028/U+2029 JS line separators.
func TestAppendTupleMatchesEncodingJSON(t *testing.T) {
	doc := []byte("ab<&>\"\\\x00\x1f\n\r\tcd\xff\xfe" + "é\u2028\u2029" + "end")
	n := len(doc)
	sp := docspanner.NewSpan
	cases := []docspanner.Tuple{
		{},                             // no assigned variables at all
		{"x": sp(1, 1)},                // empty span content
		{"x": sp(1, n+1)},              // the whole adversarial doc
		{"x": sp(3, 9), "y": sp(1, 2)}, // HTML + control characters
		{"x": sp(13, 15)},              // invalid UTF-8 run
		{"x": sp(15, 16)},              // splits the é rune: stray continuation byte
		{"b": sp(1, 4), "a": sp(2, 5), "z": sp(1, 1), "m": sp(16, n+1)}, // key sorting + U+2028/9
		{"weird\"<&>\nname": sp(1, 2)},                                  // escaping inside the variable name
	}
	for _, wc := range []bool{true, false} {
		for i, tup := range cases {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(tupleJSON(tup, doc, wc)); err != nil {
				t.Fatal(err)
			}
			got, _ := appendTupleValue(nil, tup, doc, wc, nil)
			got = append(got, '\n')
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("case %d content=%v:\n got  %q\n want %q", i, wc, got, want.Bytes())
			}
		}
	}

	// Content requested but no document text available: both paths omit
	// the content key.
	tup := docspanner.Tuple{"x": sp(1, 2)}
	var want bytes.Buffer
	_ = json.NewEncoder(&want).Encode(tupleJSON(tup, nil, true))
	got, _ := appendTupleValue(nil, tup, nil, true, nil)
	got = append(got, '\n')
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("nil doc: got %q, want %q", got, want.Bytes())
	}
}

// TestStreamEncodeAllocs gates the per-tuple streaming path at zero
// allocations once the encoder's buffers are warm.
func TestStreamEncodeAllocs(t *testing.T) {
	doc := []byte(strings.Repeat("ab", 64))
	tup := docspanner.Tuple{"x": docspanner.NewSpan(1, 3), "y": docspanner.NewSpan(5, 9)}
	enc := newNDJSONEncoder(io.Discard)
	defer enc.Release()
	if err := enc.EncodeTuple(tup, doc, true); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := enc.EncodeTuple(tup, doc, true); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("EncodeTuple allocates %v per tuple, want 0", allocs)
	}
}

// BenchmarkAppendTuple measures the steady-state per-tuple encode cost
// of the streaming path — the serve-bench hot loop with the HTTP layer
// peeled away.
func BenchmarkAppendTuple(b *testing.B) {
	doc := []byte(strings.Repeat("ab", 2048))
	tup := docspanner.Tuple{"x": docspanner.NewSpan(11, 13)}
	for _, wc := range []bool{false, true} {
		name := "spans"
		if wc {
			name = "content"
		}
		b.Run(name, func(b *testing.B) {
			enc := newNDJSONEncoder(io.Discard)
			defer enc.Release()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.EncodeTuple(tup, doc, wc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// brokenFlushWriter simulates a client that goes away: flushes start
// failing after failAfter successes. ResponseController reaches it
// through statusWriter.FlushError.
type brokenFlushWriter struct {
	*httptest.ResponseRecorder
	failAfter int
	flushes   int
}

func (b *brokenFlushWriter) FlushError() error {
	b.flushes++
	if b.flushes > b.failAfter {
		return errors.New("write tcp: broken pipe")
	}
	return nil
}

// TestStreamAbortsOnFlushError asserts the disconnect contract: once a
// flush fails the handler stops enumerating instead of serializing the
// rest of the result into a dead connection, records the request as a
// 499, and bumps the disconnect counter. Before this, flush errors were
// discarded and the stream ran to completion against a gone client.
func TestStreamAbortsOnFlushError(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "PUT", "/docs/big", strings.Repeat("ab", 3000)) // 3000 tuples
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)

	rec := &brokenFlushWriter{ResponseRecorder: httptest.NewRecorder(), failAfter: 2}
	req := httptest.NewRequest("GET", "/stream?query=q&doc=big&content=0", nil)
	s.ServeHTTP(rec, req)

	// Flushes 1 and 2 pass (tuples 1 and 64); flush 3 (tuple 128) kills
	// the stream. Well under the 3000 tuples a full run would emit, and
	// no summary line is written to the dead connection.
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) >= 3000 {
		t.Fatalf("stream emitted %d lines after the client disconnected", len(lines))
	}
	if strings.Contains(lines[len(lines)-1], `"done"`) {
		t.Fatalf("summary line written to a disconnected client: %q", lines[len(lines)-1])
	}
	if got := s.front.disconnects.Load(); got != 1 {
		t.Fatalf("disconnects = %d, want 1", got)
	}
	if got := s.front.requests("stream", 499); got != 1 {
		t.Fatalf("stream|499 requests = %d, want 1", got)
	}
}

// TestStreamClientKilledMidStream drives the same contract over a real
// TCP connection: the client reads the start of the response and slams
// the socket shut (SetLinger(0) turns the close into an immediate RST).
// The handler must notice — a blocked or failed write — and terminate
// promptly rather than producing the remaining megabytes.
func TestStreamClientKilledMidStream(t *testing.T) {
	s := newTestServer(t, Config{})
	doc := strings.Repeat("ab", 1<<19) // 512Ki tuples, ~20 MB of NDJSON
	req := httptest.NewRequest("PUT", "/docs/huge", strings.NewReader(doc))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	mustStatus(t, rec.Code, 200, "put huge")
	do(t, s, "PUT", "/queries/q", `{"src": ".*!x{ab}.*"}`)

	ts := httptest.NewServer(s)
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /stream?query=q&doc=huge HTTP/1.1\r\nHost: spannerd\r\n\r\n")
	if _, err := conn.Read(make([]byte, 4096)); err != nil {
		t.Fatalf("reading response start: %v", err)
	}
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetLinger(0)
	}
	conn.Close()

	deadline := time.Now().Add(15 * time.Second)
	for s.front.disconnects.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("handler did not record a disconnect after the client was killed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
