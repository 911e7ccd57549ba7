package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/sss-lab/blocksptrsv/internal/block"
	"github.com/sss-lab/blocksptrsv/internal/gen"
	"github.com/sss-lab/blocksptrsv/internal/sparse"
	"github.com/sss-lab/blocksptrsv/internal/trace"
)

// Tests of the solve endpoint's codec (wire.go): the scanner and the
// encoder against encoding/json on the same input, the handler against
// the encoding/json handler it replaced, the per-matrix body cap, and
// the refusal of answers JSON cannot carry.

// fallbackBodies are bodies the scanner must leave to encoding/json:
// each is decoded, accepted or refused, by json.Decoder alone.
var fallbackBodies = []string{
	`null`,
	`{"B":[1,2]}`,
	`{"Timeout_MS":5,"b":[1]}`,
	`{"\u0062":[1,2]}`,
	`{"b":[1],"b":[2]}`,
	`{"timeout_ms":1,"timeout_ms":2}`,
	`{"b":[1],"extra":{"nested":[true,"s"]}}`,
	`{"b":[1e400]}`,
	`{"b":[-1e400]}`,
	`{"b":[0x10]}`,
	`{"b":[Infinity]}`,
	`{"b":[NaN]}`,
	`{"b":[1_000]}`,
	`{"b":[01]}`,
	`{"b":[1.]}`,
	`{"b":[.5]}`,
	`{"b":[+1]}`,
	`{"b":[1e]}`,
	`{"b":["1"]}`,
	`{"b":null}`,
	`{"b":[1,]}`,
	`{"b":[1]`,
	`{"b":[1],}`,
	`{"timeout_ms":1.5,"b":[1]}`,
	`{"timeout_ms":1e3,"b":[1]}`,
	`{"timeout_ms":9223372036854775808,"b":[1]}`,
	`{"timeout_ms":null,"b":[1]}`,
	`{"timeout_ms":"5","b":[1]}`,
	`[1,2]`,
	"\ufeff{\"b\":[1]}",
	``,
	`   `,
	`{`,
}

// canonicalBodies are bodies the scanner decodes itself.
var canonicalBodies = []string{
	`{}`,
	`{"b":[]}`,
	`{"b":[1,2.5,-3e-7,1E+21,-0,0.0,1e-400]}`,
	" \t\r\n{ \"b\" : [ 1 , 2 ] , \"timeout_ms\" : 7 } ",
	`{"timeout_ms":-0,"b":[5]}`,
	`{"timeout_ms":-9223372036854775808}`,
	`{"b":[1]}trailing bytes, never read by Decoder.Decode`,
	`{"b":[1]}{"b":[2]}`,
	`{"b":[4.9e-324,2.2250738585072014e-308,1.7976931348623157e308]}`,
}

func TestScanSolveRequestTakesOnlyCanonicalBodies(t *testing.T) {
	for _, body := range canonicalBodies {
		if _, ok := scanSolveRequest([]byte(body), 0); !ok {
			t.Errorf("scanner declined canonical body %q", body)
		}
	}
	marshaled, err := json.Marshal(SolveRequest{B: gen.RandVec(100, 1), TimeoutMS: 250})
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(SolveRequest{B: gen.RandVec(10, 2)}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{marshaled, indented} {
		if _, ok := scanSolveRequest(body, 0); !ok {
			t.Errorf("scanner declined json.Marshal output %.60q", body)
		}
	}
	for _, body := range fallbackBodies {
		if req, ok := scanSolveRequest([]byte(body), 0); ok {
			t.Errorf("scanner took %q as %+v; it must fall back to encoding/json", body, req)
		}
	}
	for _, body := range append(append([]string{}, canonicalBodies...), fallbackBodies...) {
		checkDecodeMatchesJSON(t, []byte(body))
	}
}

// checkDecodeMatchesJSON holds decodeSolveRequest to json.Decoder on the
// same bytes: both accept or both refuse with the same error text, and
// an accepted body gives the same b, bit for bit and nil for nil, and
// the same timeout_ms.
func checkDecodeMatchesJSON(t *testing.T, data []byte) {
	t.Helper()
	var want SolveRequest
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	got, err := decodeSolveRequest(data, nil, 3)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("body %q: decode error %v, encoding/json %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	if got.TimeoutMS != want.TimeoutMS || (got.B == nil) != (want.B == nil) || len(got.B) != len(want.B) {
		t.Fatalf("body %q: decoded %+v, encoding/json %+v", data, got, want)
	}
	for i := range want.B {
		if math.Float64bits(got.B[i]) != math.Float64bits(want.B[i]) {
			t.Fatalf("body %q: b[%d] = %v, encoding/json %v", data, i, got.B[i], want.B[i])
		}
	}
}

// FuzzDecodeSolveRequest: on any bytes, the codec's decoder and
// json.Decoder agree.
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, body := range append(append([]string{}, canonicalBodies...), fallbackBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatchesJSON(t, data)
	})
}

// TestDecodeSolveRequestReadError: after a failed read the bytes read so
// far go to json.Decoder followed by the error, which it reports only if
// the value had not ended before it.
func TestDecodeSolveRequestReadError(t *testing.T) {
	tooLarge := &http.MaxBytesError{Limit: 16}
	req, err := decodeSolveRequest([]byte(`{"b":[1,2]}  `), tooLarge, 2)
	if err != nil || len(req.B) != 2 || req.B[1] != 2 {
		t.Fatalf("value ended before the error: %+v, %v", req, err)
	}
	if _, err := decodeSolveRequest([]byte(`{"b":[1,2`), tooLarge, 2); !errors.As(err, &tooLarge) {
		t.Fatalf("value cut by the error: %v, want the MaxBytesError", err)
	}
}

// encodeSpecials are values at the edges of encoding/json's float format:
// signed zeros, subnormals, the 'f'/'e' cutoffs at 1e-6 and 1e21 and
// their neighbours, the extremes, and the values JSON cannot carry.
var encodeSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-7, -1e-7, 1e-6, math.Nextafter(1e-6, 0), 1.2345678901234567e-6,
	1e20, 1e21, math.Nextafter(1e21, 0), -1e21, 1.5e300, math.MaxFloat64,
	-math.MaxFloat64, 1, -1, 0.1, 123456789,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// floatBytes packs xs as little-endian float64 bits, the fuzzer's form of
// a vector.
func floatBytes(xs ...float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, v := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// checkEncodeMatchesJSON holds appendSolveResponse to json.Encoder: the
// same bytes for every vector encoding/json takes, a refusal for every
// other.
func checkEncodeMatchesJSON(t *testing.T, x []float64) {
	t.Helper()
	var want bytes.Buffer
	wantErr := json.NewEncoder(&want).Encode(SolveResponse{X: x})
	got, err := appendSolveResponse(nil, x)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("x = %v: encode error %v, encoding/json %v", x, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("x = %v:\n got %s\nwant %s", x, got, want.Bytes())
	}
}

// FuzzEncodeSolveResponse: on any float64 bits, and on 64 normally
// distributed values scaled by 10^scale, the codec's encoder writes what
// json.Encoder writes, and refuses what it refuses.
func FuzzEncodeSolveResponse(f *testing.F) {
	f.Add(floatBytes(encodeSpecials...), int64(1), int16(0))
	for _, v := range encodeSpecials {
		f.Add(floatBytes(v), int64(2), int16(-7))
	}
	f.Add([]byte{}, int64(3), int16(21))
	f.Add([]byte{}, int64(4), int16(-300))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, scale int16) {
		x := make([]float64, 0, len(data)/8+64)
		for i := 0; i+8 <= len(data); i += 8 {
			x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		checkEncodeMatchesJSON(t, x)
		rng := rand.New(rand.NewSource(seed))
		mul := math.Pow(10, float64(scale))
		for i := 0; i < 64; i++ {
			x = append(x, rng.NormFloat64()*mul)
		}
		checkEncodeMatchesJSON(t, x[len(x)-64:])
	})
}

func TestEncodeSolveResponseEdges(t *testing.T) {
	checkEncodeMatchesJSON(t, nil)
	checkEncodeMatchesJSON(t, []float64{})
	for _, v := range encodeSpecials {
		checkEncodeMatchesJSON(t, []float64{v})
		checkEncodeMatchesJSON(t, []float64{1, v, -v})
	}
	rng := rand.New(rand.NewSource(5))
	for scale := -320; scale <= 300; scale += 7 {
		x := make([]float64, 32)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(scale))
		}
		checkEncodeMatchesJSON(t, x)
	}
	// The longest float64 encoding/json writes, which maxSolveBody's
	// 32 bytes a row is sized from.
	if got := appendJSONFloat(nil, -1.2345678901234567e-6); string(got) != "-0.0000012345678901234567" {
		t.Fatalf("got %s", got)
	}
}

// legacySolve answers a solve body as the handler did with encoding/json:
// json.Decoder in, the Go API, json.Encoder out, through the same error
// taxonomy.
func legacySolve(d *Daemon, matrix string, body []byte, id string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	var req SolveRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("decoding solve request: %w", err), id)
		return w
	}
	if int64(req.TimeoutMS) > maxTimeoutMS {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Errorf("timeout_ms %d exceeds %d", req.TimeoutMS, maxTimeoutMS), id)
		return w
	}
	x, err := d.Solve(context.Background(), matrix, req.B)
	if err != nil {
		writeSolveError(w, err, id)
		return w
	}
	writeJSON(w, http.StatusOK, SolveResponse{X: x})
	return w
}

// TestHTTPSolveMatchesEncodingJSON posts canonical and fallback bodies
// through Handler() and compares each answer, status, content type and
// body bytes, with what the encoding/json handler writes for the same
// body. Lone requests take the single-RHS path, whose solutions repeat
// bit for bit.
func TestHTTPSolveMatchesEncodingJSON(t *testing.T) {
	l := gen.Layered(600, 15, 5, 0.1, 7100)
	d := newTestDaemon(t, Config{Workers: 1, MaxBatch: 1, Window: -1}, l)
	h := d.Handler()

	b := gen.RandVec(l.Rows, 7101)
	marshaled, err := json.Marshal(SolveRequest{B: b})
	if err != nil {
		t.Fatal(err)
	}
	nums := strings.TrimSuffix(strings.TrimPrefix(string(marshaled), `{"b":[`), `]}`)
	indented, err := json.MarshalIndent(SolveRequest{B: b, TimeoutMS: 5000}, " ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	tiny := make([]string, l.Rows)
	for i := range tiny {
		tiny[i] = []string{"-0", "1E+2", "3.5e-7", "0.0", "1e21"}[i%5]
	}
	cases := []struct{ name, matrix, body string }{
		{"marshaled", "m", string(marshaled)},
		{"indented", "m", string(indented)},
		{"timeout first", "m", `{"timeout_ms":5000,"b":[` + nums + `]}`},
		{"trailing bytes", "m", string(marshaled) + ` trailing`},
		{"edge numbers", "m", `{"b":[` + strings.Join(tiny, ",") + `]}`},
		{"upper-case key", "m", `{"B":[` + nums + `]}`},
		{"escaped key", "m", `{"\u0062":[` + nums + `]}`},
		{"unknown key", "m", `{"b":[` + nums + `],"extra":[1,{"x":null}]}`},
		{"duplicate key", "m", `{"b":[1],"b":[` + nums + `]}`},
		{"null timeout", "m", `{"b":[` + nums + `],"timeout_ms":null}`},
		{"null", "m", `null`},
		{"short b", "m", `{"b":[1,2,3]}`},
		{"overflow", "m", `{"b":[1e400` + strings.Repeat(",1", l.Rows-1) + `]}`},
		{"hex", "m", `{"b":[0x1` + strings.Repeat(",1", l.Rows-1) + `]}`},
		{"fractional ms", "m", `{"timeout_ms":1.5,"b":[` + nums + `]}`},
		{"overflowing ms", "m", `{"timeout_ms":9223372036855,"b":[` + nums + `]}`},
		{"truncated", "m", string(marshaled[:len(marshaled)/2])},
		{"not json", "m", `{not json`},
		{"unknown matrix", "ghost", string(marshaled)},
		{"unknown matrix, bad body", "ghost", `{"b":`},
	}
	for i, c := range cases {
		id := fmt.Sprintf("codec-%d", i)
		req := httptest.NewRequest(http.MethodPost, "/solve/"+c.matrix, strings.NewReader(c.body))
		req.Header.Set("X-Request-Id", id)
		got := httptest.NewRecorder()
		h.ServeHTTP(got, req)
		want := legacySolve(d, c.matrix, []byte(c.body), id)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: got %d %q %.200s\nwant %d %q %.200s", c.name, got.Code, got.Header().Get("Content-Type"),
				got.Body.Bytes(), want.Code, want.Header().Get("Content-Type"), want.Body.Bytes())
		}
		if got.Code == http.StatusOK && c.name == "marshaled" {
			var sr SolveResponse
			if err := json.Unmarshal(got.Body.Bytes(), &sr); err != nil {
				t.Fatal(err)
			}
			checkSolution(t, l, b, sr.X)
		}
	}
}

// overflowingSystem is L with rows [1], [-2 1], [-2 1 1] and b =
// [1.7e308, 1.7e308, 0]: forward substitution overflows to x =
// [1.7e308, +Inf, NaN].
func overflowingSystem() (*sparse.CSR[float64], []float64) {
	return sparse.FromDense(3, 3, []float64{1, 0, 0, -2, 1, 0, -2, 1, 1}), []float64{1.7e308, 1.7e308, 0}
}

// TestSolveNaNFailsVerification: an answer holding NaN fails the
// verification ladder, which refines, falls back to the serial solve and
// returns *ResidualError, answered as 500 residual; its NaN residual
// used to read 0 and pass.
func TestSolveNaNFailsVerification(t *testing.T) {
	l, b := overflowingSystem()
	d := newTestDaemon(t, Config{Workers: 1}, l)
	x, err := d.Solve(context.Background(), "m", b)
	var residual *block.ResidualError
	if !errors.As(err, &residual) {
		t.Fatalf("Solve = %v, %v; want a *ResidualError", x, err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, body := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: b})
	if resp.StatusCode != http.StatusInternalServerError || errKind(t, body) != "residual" {
		t.Fatalf("POST /solve: %d %s, want 500 residual", resp.StatusCode, body)
	}
}

// postOverflowing posts the overflowing system three times to a daemon
// with one worker and no coalescing window: the first request alone,
// the other two queued behind it and coalesced into one batch. It
// returns each answer's status code and error kind.
func postOverflowing(t *testing.T, d *Daemon) map[string]int {
	t.Helper()
	_, b := overflowingSystem()
	entered, release := blockWorkers(d, "m")
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	type answer struct {
		code int
		body []byte
	}
	answers := make(chan answer, 3)
	post := func() {
		resp, body := postJSON(t, srv.URL+"/solve/m", SolveRequest{B: b})
		answers <- answer{resp.StatusCode, body}
	}
	go post()
	<-entered // the first request is alone, on the verified single-RHS path
	go post()
	go post()
	waitQueued(t, d, "m", 2) // these two coalesce into one batch
	close(release)
	kinds := map[string]int{}
	for i := 0; i < 3; i++ {
		a := <-answers
		if a.code != http.StatusInternalServerError {
			t.Fatalf("answer %d: %d %q, want 500", i, a.code, a.body)
		}
		kinds[errKind(t, a.body)]++
	}
	return kinds
}

// TestHTTPRefusesNonFiniteAnswer: an answer JSON cannot carry is refused
// with 500 internal before the status line goes out. No such answer
// reaches the encoder from a solve: a coalesced member whose answer is
// not finite retries alone, so all three copies of the overflowing
// system answer 500 residual, as the lone one does.
func TestHTTPRefusesNonFiniteAnswer(t *testing.T) {
	l, _ := overflowingSystem()
	d := newTestDaemon(t, Config{Workers: 1, MaxBatch: 4, Window: -1}, l)
	if kinds := postOverflowing(t, d); kinds["residual"] != 3 {
		t.Fatalf("error kinds %v, want 3 residual", kinds)
	}

	w := httptest.NewRecorder()
	writeSolveResponse(w, []float64{1, math.Inf(-1)}, "id")
	if w.Code != http.StatusInternalServerError || errKind(t, w.Body.Bytes()) != "internal" {
		t.Fatalf("writeSolveResponse(-Inf) = %d %s, want 500 internal", w.Code, w.Body.Bytes())
	}
}

// TestCoalescedNonFiniteAnswerRetriesAlone: a batch solve verifies
// nothing, so a coalesced member whose answer is not finite retries
// alone on the verified ladder, and its span records what that retry
// returned. Of three copies of the overflowing system, two coalesced,
// each answers 500 residual, the flight ring holds three residual
// records, and the SLO window counts three failures in three requests.
func TestCoalescedNonFiniteAnswerRetriesAlone(t *testing.T) {
	l, _ := overflowingSystem()
	d := newTestDaemon(t, Config{Workers: 1, MaxBatch: 4, Window: -1}, l)
	if kinds := postOverflowing(t, d); kinds["residual"] != 3 {
		t.Fatalf("error kinds %v, want 3 residual", kinds)
	}
	residual := 0
	for _, rec := range d.Flight().Records() {
		if rec.Outcome == trace.OutcomeResidual {
			residual++
		}
	}
	if residual != 3 {
		t.Fatalf("%d residual records in the flight ring, want 3: %+v", residual, d.Flight().Records())
	}
	st := d.SLOStatuses()
	if len(st) != 1 || st[0].Requests != 3 || st[0].Failed != 3 {
		t.Fatalf("SLO window %+v, want 3 failed of 3", st)
	}
}

// diagonal returns the n×n diagonal matrix with v on the diagonal.
func diagonal(n int, v float64) *sparse.CSR[float64] {
	m := &sparse.CSR[float64]{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1], m.ColIdx[i], m.Val[i] = i+1, i, v
	}
	return m
}

// TestHTTPBodyCapHoldsLongestRHS: the body cap is sized per matrix, so a
// 700,000-row right-hand side of 25-byte values, the longest
// encoding/json writes, is answered although its 18.2 MB pass the 16 MiB
// floor that every matrix used to get. Past the cap, a value that ended
// before it is still taken, and one cut by it is refused.
func TestHTTPBodyCapHoldsLongestRHS(t *testing.T) {
	if testing.Short() {
		t.Skip("posts bodies of 17-19 MB")
	}
	const n = 700_000
	const value = "-0.0000012345678901234567"
	d := New(Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if err := d.AddMatrix("diag", diagonal(n, 2), block.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddMatrix("small", diagonal(4, 1), block.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	post := func(matrix string, body []byte) (int, []byte) {
		resp, err := http.Post(srv.URL+"/solve/"+matrix, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	var body bytes.Buffer
	body.WriteString(`{"b":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(value)
	}
	body.WriteString("]}")
	if body.Len() <= 16<<20 || body.Len() > int(maxSolveBody(n)) {
		t.Fatalf("body of %d bytes, want above 16 MiB and within the cap %d", body.Len(), maxSolveBody(n))
	}
	code, out := post("diag", body.Bytes())
	if code != http.StatusOK {
		t.Fatalf("%d-byte body: %d %.200s", body.Len(), code, out)
	}
	var sr SolveResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		t.Fatal(err)
	}
	want := -1.2345678901234567e-6 / 2
	if len(sr.X) != n {
		t.Fatalf("%d solution values, want %d", len(sr.X), n)
	}
	for i, v := range sr.X {
		if v != want {
			t.Fatalf("x[%d] = %v, want %v", i, v, want)
		}
	}

	padded := append([]byte(`{"b":[1,2,3,4]}`), bytes.Repeat([]byte(" "), 16<<20)...)
	if code, out := post("small", padded); code != http.StatusOK {
		t.Fatalf("value ending before the cap: %d %.200s", code, out)
	}
	cut := append([]byte(`{"b":[1,2,3,4`), bytes.Repeat([]byte(" "), 16<<20)...)
	if code, out := post("small", append(cut, "]}"...)); code != http.StatusBadRequest || !bytes.Contains(out, []byte("request body too large")) {
		t.Fatalf("value cut by the cap: %d %.200s", code, out)
	}
}

// BenchmarkSolveCodec times the solve endpoint's codec against
// encoding/json on a 20,000-value body of normally distributed values,
// as json.Marshal writes it (about 19.6 bytes a value): decode is the
// request, encode the answer, each into an io.Discard-like sink.
func BenchmarkSolveCodec(bm *testing.B) {
	const n = 20_000
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(7200))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	body, err := json.Marshal(SolveRequest{B: x})
	if err != nil {
		bm.Fatal(err)
	}
	bm.Run("decode/scan", func(bm *testing.B) {
		bm.SetBytes(int64(len(body)))
		for bm.Loop() {
			if _, err := decodeSolveRequest(body, nil, n); err != nil {
				bm.Fatal(err)
			}
		}
	})
	bm.Run("decode/encoding-json", func(bm *testing.B) {
		bm.SetBytes(int64(len(body)))
		for bm.Loop() {
			var req SolveRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				bm.Fatal(err)
			}
		}
	})
	bm.Run("encode/append", func(bm *testing.B) {
		for bm.Loop() {
			out, err := appendSolveResponse(make([]byte, 0, 16+26*len(x)), x)
			if err != nil {
				bm.Fatal(err)
			}
			_, _ = io.Discard.Write(out)
		}
	})
	bm.Run("encode/encoding-json", func(bm *testing.B) {
		for bm.Loop() {
			if err := json.NewEncoder(io.Discard).Encode(SolveResponse{X: x}); err != nil {
				bm.Fatal(err)
			}
		}
	})
}
