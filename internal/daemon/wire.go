package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// The solve endpoint's codec (DESIGN.md §6.10). Decoding b and encoding
// x by reflection took encoding/json several times as long as the solve
// between them, so this file decodes the canonical request with a byte
// scanner and strconv.ParseFloat, and builds the answer with
// strconv.AppendFloat. The wire format is unchanged.
//
// The scanner answers only what it can prove: an object whose keys are
// exactly "b" (an array of JSON numbers) and "timeout_ms" (an integer
// literal), each at most once, with no escapes and JSON whitespace
// anywhere. Every other body goes, byte for byte, to json.Decoder, so
// that body is accepted or refused, with the same error text, exactly as
// encoding/json does: null, keys that encoding/json case-folds or
// unescapes, duplicate or unknown keys, numbers ParseFloat refuses, a
// fractional or overflowing timeout. FuzzDecodeSolveRequest and
// FuzzEncodeSolveResponse hold each half to encoding/json.

// readSolveBody reads the whole body from r, which enforces the cap. Its
// buffer is sized from the request's Content-Length, but to no more than
// bodyBytesPerRow a row of the matrix, so that a header alone cannot make
// the daemon allocate up to the cap for a body that never comes. It
// returns what it read and the error that stopped it early, nil at EOF.
func readSolveBody(r io.Reader, contentLength int64, rows int) ([]byte, error) {
	var buf bytes.Buffer
	if contentLength > 0 {
		buf.Grow(int(min(contentLength, bodyBytesPerRow*int64(rows))) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeSolveRequest decodes a solve body: data is what was read and
// readErr what stopped the read early (nil at EOF). A canonical body
// read to its end is scanned, b with capacity rows. Every other body
// goes to json.Decoder, followed by readErr, which it reports only if
// the value had not ended before it, as when decoding from the request
// body itself.
func decodeSolveRequest(data []byte, readErr error, rows int) (SolveRequest, error) {
	if readErr == nil {
		if req, ok := scanSolveRequest(data, rows); ok {
			return req, nil
		}
	}
	var src io.Reader = bytes.NewReader(data)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req SolveRequest
	err := json.NewDecoder(src).Decode(&req)
	return req, err
}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// wireScanner walks a request body. Every method leaves pos after what
// it consumed.
type wireScanner struct {
	data []byte
	pos  int
}

// scanSolveRequest decodes the canonical request body. ok is false for
// any body it cannot prove encoding/json decodes to the same value;
// bytes after the closing brace are ignored, as Decoder.Decode ignores
// them.
func scanSolveRequest(data []byte, rows int) (SolveRequest, bool) {
	var req SolveRequest
	s := wireScanner{data: data}
	s.space()
	if !s.eat('{') {
		return req, false
	}
	s.space()
	if s.eat('}') {
		return req, true
	}
	var seenB, seenTimeout bool
	for {
		key, ok := s.key()
		if !ok {
			return req, false
		}
		s.space()
		if !s.eat(':') {
			return req, false
		}
		s.space()
		switch {
		case string(key) == "b" && !seenB:
			seenB = true
			req.B, ok = s.numbers(make([]float64, 0, rows))
		case string(key) == "timeout_ms" && !seenTimeout:
			seenTimeout = true
			req.TimeoutMS, ok = s.integer()
		default:
			return req, false
		}
		if !ok {
			return req, false
		}
		s.space()
		if s.eat('}') {
			return req, true
		}
		if !s.eat(',') {
			return req, false
		}
		s.space()
	}
}

// space skips JSON whitespace.
func (s *wireScanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (s *wireScanner) eat(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// key reads a quoted object key as its raw bytes. Only the exact bytes
// b and timeout_ms name a field here, so any other key, an escaped or
// case-folded spelling of these two included, sends the body to
// encoding/json.
func (s *wireScanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.data[s.pos:], '"')
	if n < 0 {
		return nil, false
	}
	key := s.data[s.pos : s.pos+n]
	s.pos += n + 1
	return key, true
}

// numbers reads an array of JSON numbers, appending each to b.
func (s *wireScanner) numbers(b []float64) ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	s.space()
	if s.eat(']') {
		return b, true
	}
	for {
		tok, ok := s.number()
		if !ok {
			return nil, false
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, false
		}
		b = append(b, v)
		s.space()
		if s.eat(']') {
			return b, true
		}
		if !s.eat(',') {
			return nil, false
		}
		s.space()
	}
}

// integer reads timeout_ms: a JSON number that strconv.Atoi takes, so
// one with no fraction or exponent that fits an int, which is what
// encoding/json sets an int from.
func (s *wireScanner) integer() (int, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(string(tok))
	return v, err == nil
}

// number reads the longest prefix that the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, takes, so that
// ParseFloat, which also takes Inf, NaN, hex and underscores, never sees
// anything else. Whatever follows must be a delimiter, which the caller
// checks.
func (s *wireScanner) number() ([]byte, bool) {
	start := s.pos
	s.eat('-')
	switch {
	case s.eat('0'):
	case s.pos < len(s.data) && s.data[s.pos] >= '1' && s.data[s.pos] <= '9':
		s.digits()
	default:
		return nil, false
	}
	if s.eat('.') && !s.digits() {
		return nil, false
	}
	if s.eat('e') || s.eat('E') {
		if !s.eat('+') {
			s.eat('-')
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.data[start:s.pos], true
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *wireScanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// writeSolveResponse writes the 200 answer {"x":[…]}\n, byte for byte
// what json.NewEncoder(w).Encode(SolveResponse{X: x}) writes, in one
// Write. A value JSON cannot carry is refused before the status line
// goes out, with a 500 internal; encoding/json refuses it only after
// the status line, leaving an empty 200.
func writeSolveResponse(w http.ResponseWriter, x []float64, requestID string) {
	// At most 25 bytes a value and its comma, so the buffer never grows.
	body, err := appendSolveResponse(make([]byte, 0, 16+26*len(x)), x)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err, requestID)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A write failure here means the client hung up mid-body; there is
	// no one left to tell.
	_, _ = w.Write(body)
}

// appendSolveResponse appends the encoding of SolveResponse{X: x} and its
// newline, as json.Encoder writes it, or fails at the first non-finite
// value.
func appendSolveResponse(dst []byte, x []float64) ([]byte, error) {
	if x == nil {
		return append(dst, "{\"x\":null}\n"...), nil
	}
	dst = append(dst, `{"x":[`...)
	for i, v := range x {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return dst, fmt.Errorf("daemon: solution value %d is %v, which JSON cannot carry", i, v)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, v)
	}
	return append(dst, "]}\n"...), nil
}

// appendJSONFloat formats a finite v as encoding/json does: the shortest
// decimal that reads back as v, in 'f' format except below 1e-6 and from
// 1e21 up, where it is 'e' with a one-digit negative exponent unpadded
// (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
