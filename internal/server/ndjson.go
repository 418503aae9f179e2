package server

// Hand-rolled tuple serialization for the hot response paths. Encoding
// a tuple through encoding/json means building a map per tuple and per
// span and reflecting over them; on /stream that dominated the
// profile. appendTupleValue produces byte-identical output —
// same sorted key order, same string escaping (including the HTML and
// U+2028/U+2029 escapes encoding/json applies by default) — into a
// caller-owned buffer, so the per-tuple path allocates nothing once the
// buffers are warm. ndjson_test.go locks both properties in:
// byte-for-byte equality against encoding/json on adversarial inputs,
// and zero allocations per encoded tuple.

import (
	"bufio"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"docspanner"
)

// streamFlushEvery is the tuple cadence of explicit flushes on /stream:
// the first tuple is flushed immediately (the streaming contract — the
// client sees line one before the result is materialized), then every
// streamFlushEvery-th tuple, then the summary. In between, the pooled
// bufio.Writer batches lines into 4 KiB writes instead of one syscall
// per tuple.
const streamFlushEvery = 64

const hexDigits = "0123456789abcdef"

// htmlSafe mirrors encoding/json's htmlSafeSet: ASCII bytes that need
// no escaping when EscapeHTML is on (the Encoder default we replicate).
func htmlSafe(b byte) bool {
	return b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// appendEscaped appends s as a JSON string, byte-identical to
// encoding/json with EscapeHTML: \" \\ \n \r \t stay short, other
// control bytes and <>& become \u00xx, invalid UTF-8 becomes �,
// and U+2028/U+2029 are escaped for JS embedding.
func appendEscaped(dst, s []byte) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRune(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', byte('8'+c-'\u2028'))
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendEscapedString is appendEscaped over a string (variable names),
// avoiding the []byte conversion alloc. Same output, same rules.
func appendEscapedString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe(b) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', byte('8'+c-'\u2028'))
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendTupleValue appends t as one JSON object, exactly the bytes
// encoding/json produces for the tuple as nested maps (the tupleJSON
// oracle in ndjson_test.go): variables in sorted order, each span as {"begin": B[, "content": C], "end": E}
// (the alphabetical key order a sorted map marshal yields). vars is a
// caller-provided scratch slice, returned grown so the caller can reuse
// it across tuples.
func appendTupleValue(dst []byte, t docspanner.Tuple, doc []byte, withContent bool, vars []docspanner.Var) ([]byte, []docspanner.Var) {
	vars = vars[:0]
	for v := range t {
		vars = append(vars, v)
	}
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0 && vars[j] < vars[j-1]; j-- {
			vars[j], vars[j-1] = vars[j-1], vars[j]
		}
	}
	dst = append(dst, '{')
	for i, v := range vars {
		if i > 0 {
			dst = append(dst, ',')
		}
		sp := t[v]
		dst = appendEscapedString(dst, string(v))
		dst = append(dst, `:{"begin":`...)
		dst = strconv.AppendInt(dst, int64(sp.Begin), 10)
		if withContent && doc != nil {
			dst = append(dst, `,"content":`...)
			dst = appendEscaped(dst, sp.Content(doc))
		}
		dst = append(dst, `,"end":`...)
		dst = strconv.AppendInt(dst, int64(sp.End), 10)
		dst = append(dst, '}')
	}
	return append(dst, '}'), vars
}

// ndjsonEncoder streams tuples as NDJSON lines through a pooled
// buffered writer. One per /stream request; Release returns it (and
// its buffers) to the pool.
type ndjsonEncoder struct {
	w    *bufio.Writer
	buf  []byte
	vars []docspanner.Var
}

var ndjsonPool = sync.Pool{
	New: func() any {
		return &ndjsonEncoder{
			w:    bufio.NewWriterSize(io.Discard, 4096),
			buf:  make([]byte, 0, 512),
			vars: make([]docspanner.Var, 0, 8),
		}
	},
}

func newNDJSONEncoder(w io.Writer) *ndjsonEncoder {
	e := ndjsonPool.Get().(*ndjsonEncoder)
	e.w.Reset(w)
	return e
}

// Release drops the reference to the response writer and pools the
// encoder. Callers must not use e afterwards.
func (e *ndjsonEncoder) Release() {
	e.w.Reset(io.Discard)
	ndjsonPool.Put(e)
}

// EncodeTuple writes one tuple line (object + newline) into the buffer.
// A non-nil error means the client is gone; the stream should abort.
func (e *ndjsonEncoder) EncodeTuple(t docspanner.Tuple, doc []byte, withContent bool) error {
	e.buf, e.vars = appendTupleValue(e.buf[:0], t, doc, withContent, e.vars)
	e.buf = append(e.buf, '\n')
	_, err := e.w.Write(e.buf)
	return err
}

// EncodeChange writes one /changes delta line — {"op":"add","tuple":{…}}
// or {"op":"remove","tuple":{…}} — through the same zero-allocation
// tuple path as EncodeTuple.
func (e *ndjsonEncoder) EncodeChange(op string, t docspanner.Tuple, doc []byte, withContent bool) error {
	e.buf = append(e.buf[:0], `{"op":`...)
	e.buf = appendEscapedString(e.buf, op)
	e.buf = append(e.buf, `,"tuple":`...)
	e.buf, e.vars = appendTupleValue(e.buf, t, doc, withContent, e.vars)
	e.buf = append(e.buf, '}', '\n')
	_, err := e.w.Write(e.buf)
	return err
}

// WriteLine writes a pre-marshaled JSON line (the stream summary).
func (e *ndjsonEncoder) WriteLine(line []byte) error {
	if _, err := e.w.Write(line); err != nil {
		return err
	}
	return e.w.WriteByte('\n')
}

// Flush pushes buffered bytes into the ResponseWriter and then flushes
// the HTTP stack itself. A transport that cannot flush (no Flusher all
// the way down) is not an error — the bytes are on their way when the
// handler returns; only a genuine write/flush failure, i.e. a client
// disconnect, is reported.
func (e *ndjsonEncoder) Flush(rc *http.ResponseController) error {
	if err := e.w.Flush(); err != nil {
		return err
	}
	if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}
