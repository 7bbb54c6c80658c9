package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestFrameRoundtrip(t *testing.T) {
	payloads := [][]byte{
		{},
		{0x01},
		bytes.Repeat([]byte{0xab}, 300),
		bytes.Repeat([]byte{0x00}, 1<<16),
	}
	var stream []byte
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range payloads {
		got, err := ReadFrame(br, buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		buf = got
	}
	if _, err := ReadFrame(br, buf, 0); err != io.EOF {
		t.Fatalf("expected io.EOF at stream end, got %v", err)
	}
}

func TestWriteFrameMatchesAppendFrame(t *testing.T) {
	// Lengths on each side of the one-, two- and three-byte uvarint
	// boundaries.
	for _, n := range []int{0, 1, 127, 128, 513, 16383, 16384, 70000} {
		payload := bytes.Repeat([]byte{0x5a}, n)
		var out bytes.Buffer
		bw := bufio.NewWriter(&out)
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := AppendFrame(nil, payload); !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("WriteFrame and AppendFrame disagree on a %d-byte payload", n)
		}
	}
}

// TestWriteFrameAllocs pins WriteFrame's doc: framing an already-encoded
// payload allocates nothing. Both ends frame every message with it.
func TestWriteFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 300)
	bw := bufio.NewWriterSize(io.Discard, 4096)
	if got := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("WriteFrame allocates %.2f/op, want 0", got)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	full := AppendFrame(nil, bytes.Repeat([]byte{0x7f}, 100))
	for _, cut := range []int{1, 2, 50, len(full) - 1} {
		br := bufio.NewReader(bytes.NewReader(full[:cut]))
		if _, err := ReadFrame(br, nil, 0); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestReadFrameCaps(t *testing.T) {
	over := AppendFrame(nil, bytes.Repeat([]byte{1}, 64))
	br := bufio.NewReader(bytes.NewReader(over))
	if _, err := ReadFrame(br, nil, 63); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}

	// A length prefix near 2^64 must be refused before any allocation,
	// even though it would wrap a signed int.
	wrap := binary.AppendUvarint(nil, math.MaxUint64-1)
	br = bufio.NewReader(bytes.NewReader(wrap))
	if _, err := ReadFrame(br, nil, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("length-wrap frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	stream := AppendFrame(nil, bytes.Repeat([]byte{2}, 32))
	stream = AppendFrame(stream, bytes.Repeat([]byte{3}, 16))
	br := bufio.NewReader(bytes.NewReader(stream))
	buf := make([]byte, 0, 64)
	p1, err := ReadFrame(br, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &buf[:1][0] {
		t.Fatal("first frame did not reuse the caller's buffer")
	}
	p2, err := ReadFrame(br, p1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != 16 || p2[0] != 3 {
		t.Fatalf("second frame corrupt: % x", p2)
	}
}

func TestHeaderRoundtrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		p := AppendHeader(nil, OpQuery, id)
		p = append(p, 0xde, 0xad)
		op, got, body, err := ParseHeader(p)
		if err != nil {
			t.Fatalf("id %d: %v", id, err)
		}
		if op != OpQuery || got != id || !bytes.Equal(body, []byte{0xde, 0xad}) {
			t.Fatalf("id %d: got op=%#x id=%d body=% x", id, op, got, body)
		}
	}
	if _, _, _, err := ParseHeader(nil); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("empty payload: got %v", err)
	}
	if _, _, _, err := ParseHeader([]byte{OpQuery}); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("missing request id: got %v", err)
	}
}

func TestHelloRoundtrip(t *testing.T) {
	in := Hello{Version: 1, Tenant: "acme", Traceparent: "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"}
	body := AppendHelloBody(nil, &in)
	var out Hello
	if err := DecodeHelloBody(body, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
	if err := DecodeHelloBody(body[:len(body)-1], &out); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("truncated hello: got %v", err)
	}
	if err := DecodeHelloBody(append(body, 0), &out); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing bytes: got %v", err)
	}
}

func TestHelloOKRoundtrip(t *testing.T) {
	in := HelloOK{Version: 1, MaxFrame: 1 << 20, MaxBatch: 1024}
	body := AppendHelloOKBody(nil, &in)
	var out HelloOK
	if err := DecodeHelloOKBody(body, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestQueryRoundtrip(t *testing.T) {
	items := []QueryItem{
		{Query: 42.5},
		{Query: -1, Threshold: 10.25, HasThreshold: true},
		{Query: 0, Buckets: []int{0, 7, 12345, -3}},
		{Query: math.Inf(1), Threshold: math.SmallestNonzeroFloat64, HasThreshold: true, Buckets: []int{1}},
	}
	body := AppendQueryBody(nil, "sess-1", "corr-9", items)
	var req QueryRequest
	if err := DecodeQueryBody(body, &req); err != nil {
		t.Fatal(err)
	}
	if string(req.Session) != "sess-1" || string(req.Corr) != "corr-9" {
		t.Fatalf("ids: session=%q corr=%q", req.Session, req.Corr)
	}
	if !reflect.DeepEqual(normalizeItems(req.Items), normalizeItems(items)) {
		t.Fatalf("items:\n got %+v\nwant %+v", req.Items, items)
	}

	// Reuse: a second decode into the same request must not allocate new
	// item storage when capacities suffice.
	body2 := AppendQueryBody(nil, "s", "", items[:2])
	if err := DecodeQueryBody(body2, &req); err != nil {
		t.Fatal(err)
	}
	if len(req.Corr) != 0 || len(req.Items) != 2 {
		t.Fatalf("reuse decode: corr=%q items=%d", req.Corr, len(req.Items))
	}
}

// normalizeItems maps empty and nil bucket slices to a canonical form so
// DeepEqual compares semantics, not backing-array identity.
func normalizeItems(in []QueryItem) []QueryItem {
	out := make([]QueryItem, len(in))
	for i, it := range in {
		out[i] = it
		if len(it.Buckets) == 0 {
			out[i].Buckets = nil
		} else {
			out[i].Buckets = append([]int(nil), it.Buckets...)
		}
	}
	return out
}

func TestQueryDecodeRejectsCorrupt(t *testing.T) {
	good := AppendQueryBody(nil, "s", "", []QueryItem{{Query: 1, Threshold: 2, HasThreshold: true, Buckets: []int{3}}})
	var req QueryRequest
	for cut := 0; cut < len(good); cut++ {
		if err := DecodeQueryBody(good[:cut], &req); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := DecodeQueryBody(append(append([]byte(nil), good...), 0xff), &req); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// An unknown item flag bit must be rejected, not silently ignored:
	// it would change the item layout in a future protocol revision.
	bad := AppendQueryBody(nil, "s", "", nil)
	bad[len(bad)-1] = 1 // item count 1
	bad = append(bad, 0x80)
	bad = binary.LittleEndian.AppendUint64(bad, 0)
	if err := DecodeQueryBody(bad, &req); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("unknown flag bit: got %v", err)
	}

	// A hostile item count larger than the remaining body must fail fast
	// without sizing an allocation from it.
	huge := appendString(nil, "s")
	huge = appendString(huge, "")
	huge = binary.AppendUvarint(huge, 1<<30)
	if err := DecodeQueryBody(huge, &req); err == nil {
		t.Fatal("hostile item count accepted")
	}
}

func TestQueryOKRoundtrip(t *testing.T) {
	results := []Result{
		{Above: true},
		{Above: true, Numeric: true, Value: -12.75},
		{Exhausted: true},
		{FromSynthetic: true, Above: true},
		{},
	}
	body := AppendQueryOKBody(nil, []byte("req-77"), true, 3, results)
	var resp QueryResponse
	if err := DecodeQueryOKBody(body, &resp); err != nil {
		t.Fatal(err)
	}
	if string(resp.Corr) != "req-77" || !resp.Halted || resp.Remaining != 3 {
		t.Fatalf("envelope: %+v", resp)
	}
	if !reflect.DeepEqual(resp.Results, results) {
		t.Fatalf("results:\n got %+v\nwant %+v", resp.Results, results)
	}

	for cut := 0; cut < len(body); cut++ {
		if err := DecodeQueryOKBody(body[:cut], &resp); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestErrorRoundtrip(t *testing.T) {
	in := ErrorFrame{Code: "rate_limited", Message: `tenant "acme" exceeded 100 requests/sec`, RetryAfterSeconds: 2}
	body := AppendErrorBody(nil, &in)
	var out ErrorFrame
	if err := DecodeErrorBody(body, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("got %+v, want %+v", out, in)
	}
}

func TestIDBodyRoundtrip(t *testing.T) {
	body := AppendIDBody(nil, "sess-abc")
	id, err := DecodeIDBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(id) != "sess-abc" {
		t.Fatalf("got %q", id)
	}
	if _, err := DecodeIDBody(append(body, 1)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("trailing bytes: got %v", err)
	}
	if _, err := DecodeIDBody(body[:2]); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("truncated: got %v", err)
	}
}
