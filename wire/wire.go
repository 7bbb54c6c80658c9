package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Frame layout, shared by both directions:
//
//	| length uvarint | payload (length bytes) |
//
// where the payload is
//
//	| op byte | requestID uvarint | body (rest) |
//
// The length prefix lets a reader skip to the next frame without parsing
// the body; the request ID lets a client pipeline many requests on one
// connection and match responses arriving out of order. Response frames
// echo the request's ID and carry the request op with RespFlag set (an
// error response uses OpError instead). Body layouts are defined per op
// below; the hot-path bodies (query, query response) are fully binary with
// the same varint + float64-LE discipline as the server's journal codec,
// while the cold control ops (create, status, mechanisms) carry the HTTP
// API's JSON bodies verbatim, so the two edges can never disagree about
// request semantics.

// Version is the protocol generation negotiated in the hello exchange.
// A server refuses a hello carrying a version it does not speak.
const Version = 1

// DefaultMaxFrameBytes caps a frame's payload when the caller passes no
// explicit cap: 1 MiB, matching the HTTP edge's default body cap.
const DefaultMaxFrameBytes = 1 << 20

// RespFlag is OR-ed into a request op to form its success-response op.
const RespFlag byte = 0x80

// Request ops (client to server).
const (
	// OpHello must be the first frame on a connection: it carries the
	// protocol version, the calling tenant and an optional W3C traceparent
	// that seeds trace correlation for the whole connection.
	OpHello byte = 0x01
	// OpQuery is the hot path: a batch of threshold queries against one
	// session.
	OpQuery byte = 0x02
	// OpCreate creates a session; the body is the HTTP API's CreateParams
	// JSON. The tenant always comes from the hello frame, never the body.
	OpCreate byte = 0x03
	// OpStatus fetches one session's status; the body is the session ID.
	OpStatus byte = 0x04
	// OpDelete ends a session; the body is the session ID.
	OpDelete byte = 0x05
	// OpMechanisms lists the server's mechanism registry with capability
	// flags (the GET /v1/mechanisms document); the body is empty.
	OpMechanisms byte = 0x06
)

// Response ops (server to client).
const (
	OpHelloOK      = OpHello | RespFlag
	OpQueryOK      = OpQuery | RespFlag
	OpCreateOK     = OpCreate | RespFlag
	OpStatusOK     = OpStatus | RespFlag
	OpDeleteOK     = OpDelete | RespFlag
	OpMechanismsOK = OpMechanisms | RespFlag
	// OpError is the typed failure response for any request: a stable
	// machine-readable code (the HTTP API's error codes), a human-readable
	// message, and a retry-after hint for rate-limited requests.
	OpError byte = 0xFF
)

// Decoding error sentinels. ErrFrameTooLarge also guards against hostile
// length prefixes (including uvarint values that would wrap an int), so a
// reader never allocates more than its configured cap.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds the size cap")
	ErrCorruptFrame  = errors.New("wire: corrupt frame")
)

// AppendFrame appends payload as one length-prefixed frame to dst.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// WriteFrame writes payload as one length-prefixed frame to bw. The
// uvarint header goes out byte by byte through bw's buffer, so framing an
// already-encoded payload allocates nothing (a header array handed to
// bw.Write would escape to the heap on every call).
//
//svt:hotpath
func WriteFrame(bw *bufio.Writer, payload []byte) error {
	n := uint64(len(payload))
	for ; n >= 0x80; n >>= 7 {
		if err := bw.WriteByte(byte(n) | 0x80); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(byte(n)); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// ReadFrame reads one frame's payload into buf's backing array, growing it
// only when the frame outgrows its capacity, and returns the payload
// slice. max caps the payload length (0 means DefaultMaxFrameBytes); a
// larger or int-wrapping length prefix fails with ErrFrameTooLarge before
// anything is allocated. A clean EOF at a frame boundary returns io.EOF;
// EOF mid-frame returns io.ErrUnexpectedEOF.
//
//svt:hotpath
func ReadFrame(br *bufio.Reader, buf []byte, max int) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return buf[:0], err
	}
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	if n > uint64(max) {
		return buf[:0], fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	return buf, nil
}

// AppendHeader appends the payload header (op, request ID) to dst; the
// caller appends the body and frames the result.
//
//svt:hotpath
func AppendHeader(dst []byte, op byte, reqID uint64) []byte {
	dst = append(dst, op)
	return binary.AppendUvarint(dst, reqID)
}

// ParseHeader splits a frame payload into its op, request ID and body.
//
//svt:hotpath
func ParseHeader(payload []byte) (op byte, reqID uint64, body []byte, err error) {
	if len(payload) == 0 {
		return 0, 0, nil, fmt.Errorf("%w: empty payload", ErrCorruptFrame)
	}
	id, n := binary.Uvarint(payload[1:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: bad request id", ErrCorruptFrame)
	}
	return payload[0], id, payload[1+n:], nil
}

// dec walks a frame body, remembering the first failure so field reads
// chain without per-field error plumbing — the journal codec's decoder
// discipline (server/persist.go).
type dec struct {
	b   []byte
	bad bool
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) byte_() byte {
	if len(d.b) == 0 {
		d.bad = true
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) float() float64 {
	if len(d.b) < 8 {
		d.bad = true
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// count reads a uvarint that must survive the cast to int AND be plausible
// for the bytes that remain (every counted element is at least one byte),
// so a hostile count can neither wrap negative nor size a huge allocation.
func (d *dec) count() int {
	v := d.uvarint()
	if v > math.MaxInt32 || v > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	return int(v)
}

// bytes returns the next length-prefixed byte string, ALIASING the frame
// buffer: valid only until the caller's next ReadFrame on the same buffer.
func (d *dec) bytes() []byte {
	n := d.count()
	if d.bad {
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Hello is the OpHello body: the connection handshake. Body layout:
// version uvarint, tenant string, traceparent string (strings are uvarint
// length + bytes; traceparent may be empty).
type Hello struct {
	Version     uint64
	Tenant      string
	Traceparent string
}

// AppendHelloBody appends h to dst.
func AppendHelloBody(dst []byte, h *Hello) []byte {
	dst = binary.AppendUvarint(dst, h.Version)
	dst = appendString(dst, h.Tenant)
	return appendString(dst, h.Traceparent)
}

// DecodeHelloBody decodes an OpHello body. The strings are copied: the
// handshake is once per connection and its fields outlive the frame.
func DecodeHelloBody(body []byte, h *Hello) error {
	d := dec{b: body}
	h.Version = d.uvarint()
	h.Tenant = string(d.bytes())
	h.Traceparent = string(d.bytes())
	if d.bad || len(d.b) != 0 {
		return fmt.Errorf("%w: bad hello body", ErrCorruptFrame)
	}
	return nil
}

// HelloOK is the OpHelloOK body: the server's accepted version and the
// connection's negotiated caps. Body layout: three uvarints.
type HelloOK struct {
	Version  uint64
	MaxFrame uint64
	MaxBatch uint64
}

// AppendHelloOKBody appends h to dst.
func AppendHelloOKBody(dst []byte, h *HelloOK) []byte {
	dst = binary.AppendUvarint(dst, h.Version)
	dst = binary.AppendUvarint(dst, h.MaxFrame)
	return binary.AppendUvarint(dst, h.MaxBatch)
}

// DecodeHelloOKBody decodes an OpHelloOK body.
func DecodeHelloOKBody(body []byte, h *HelloOK) error {
	d := dec{b: body}
	h.Version = d.uvarint()
	h.MaxFrame = d.uvarint()
	h.MaxBatch = d.uvarint()
	if d.bad || len(d.b) != 0 {
		return fmt.Errorf("%w: bad hello response body", ErrCorruptFrame)
	}
	return nil
}

// QueryItem flag bits.
const (
	qiHasThreshold = 1 << 0 // per-query threshold float64 follows the query
	qiHasBuckets   = 1 << 1 // bucket list follows: uvarint count + count varints
)

// QueryItem is one threshold query (or one linear counting query, when
// Buckets is set) in an OpQuery batch.
type QueryItem struct {
	// Query is the true, unperturbed answer.
	Query float64
	// Threshold overrides the session default when HasThreshold is set; a
	// flag rather than a pointer so the decoded batch needs no per-item
	// box.
	Threshold    float64
	HasThreshold bool
	// Buckets is a linear counting query's histogram indices.
	Buckets []int
}

// QueryRequest is a decoded OpQuery body. Session and Corr ALIAS the frame
// buffer and are valid only until the next ReadFrame; Items and its bucket
// arena are reused across decodes, so a pooled QueryRequest makes the
// steady-state decode allocation-free. Body layout: session string, corr
// string (empty means the server mints one), uvarint item count, then per
// item a flags byte, the query float64 LE, an optional threshold float64
// LE and an optional bucket list (uvarint count + count varints).
type QueryRequest struct {
	Session []byte
	Corr    []byte
	Items   []QueryItem

	// buckets is the flat arena the items' Buckets slices point into.
	buckets []int
}

// AppendQueryBody appends a query batch to dst.
func AppendQueryBody(dst []byte, session, corr string, items []QueryItem) []byte {
	dst = appendString(dst, session)
	dst = appendString(dst, corr)
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for i := range items {
		it := &items[i]
		var flags byte
		if it.HasThreshold {
			flags |= qiHasThreshold
		}
		if len(it.Buckets) > 0 {
			flags |= qiHasBuckets
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(it.Query))
		if it.HasThreshold {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(it.Threshold))
		}
		if len(it.Buckets) > 0 {
			dst = binary.AppendUvarint(dst, uint64(len(it.Buckets)))
			for _, b := range it.Buckets {
				dst = binary.AppendVarint(dst, int64(b))
			}
		}
	}
	return dst
}

// DecodeQueryBody decodes an OpQuery body into req, reusing req's slices.
//
//svt:hotpath
func DecodeQueryBody(body []byte, req *QueryRequest) error {
	d := dec{b: body}
	req.Session = d.bytes()
	req.Corr = d.bytes()
	n := d.count()
	if d.bad {
		return fmt.Errorf("%w: bad query body", ErrCorruptFrame)
	}
	items := req.Items[:0]
	if cap(items) < n {
		items = make([]QueryItem, 0, n)
	}
	buckets := req.buckets[:0]
	for i := 0; i < n; i++ {
		flags := d.byte_()
		if flags&^byte(qiHasThreshold|qiHasBuckets) != 0 {
			return fmt.Errorf("%w: bad query item flags", ErrCorruptFrame)
		}
		it := QueryItem{Query: d.float()}
		if flags&qiHasThreshold != 0 {
			it.Threshold = d.float()
			it.HasThreshold = true
		}
		if flags&qiHasBuckets != 0 {
			bn := d.count()
			if d.bad {
				return fmt.Errorf("%w: bad bucket count", ErrCorruptFrame)
			}
			start := len(buckets)
			for j := 0; j < bn; j++ {
				buckets = append(buckets, int(d.varint()))
			}
			// Full-slice expression: a later arena grow must copy, never
			// scribble past this item's view.
			it.Buckets = buckets[start:len(buckets):len(buckets)]
		}
		if d.bad {
			return fmt.Errorf("%w: truncated query item", ErrCorruptFrame)
		}
		items = append(items, it)
	}
	if d.bad || len(d.b) != 0 {
		return fmt.Errorf("%w: bad query body", ErrCorruptFrame)
	}
	req.Items, req.buckets = items, buckets
	return nil
}

// Result flag bits.
const (
	resAbove         = 1 << 0
	resNumeric       = 1 << 1
	resFromSynthetic = 1 << 2
	resExhausted     = 1 << 3
	resHasValue      = 1 << 4 // released value float64 follows
)

// queryOKHalted is the QueryOK batch-level flag bit.
const queryOKHalted = 1 << 0

// Result is one released answer in an OpQueryOK body, mirroring the HTTP
// API's QueryResult field for field.
type Result struct {
	Above         bool
	Numeric       bool
	FromSynthetic bool
	Exhausted     bool
	Value         float64
}

// QueryResponse is a decoded OpQueryOK body. Corr aliases the frame
// buffer; Results is reused across decodes. Body layout: corr string (the
// request's correlation ID, echoed, or a server-minted one), a flags byte
// (halted), uvarint remaining, uvarint result count, then per result a
// flags byte and an optional value float64 LE.
type QueryResponse struct {
	Corr      []byte
	Halted    bool
	Remaining int
	Results   []Result
}

// AppendQueryOKBody appends a query response to dst.
//
//svt:hotpath
func AppendQueryOKBody(dst []byte, corr []byte, halted bool, remaining int, results []Result) []byte {
	dst = appendBytes(dst, corr)
	var flags byte
	if halted {
		flags |= queryOKHalted
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(remaining))
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for i := range results {
		r := &results[i]
		var rf byte
		if r.Above {
			rf |= resAbove
		}
		if r.Numeric {
			rf |= resNumeric
		}
		if r.FromSynthetic {
			rf |= resFromSynthetic
		}
		if r.Exhausted {
			rf |= resExhausted
		}
		if r.Value != 0 {
			rf |= resHasValue
		}
		dst = append(dst, rf)
		if r.Value != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Value))
		}
	}
	return dst
}

// DecodeQueryOKBody decodes an OpQueryOK body into resp, reusing
// resp.Results.
//
//svt:hotpath
func DecodeQueryOKBody(body []byte, resp *QueryResponse) error {
	d := dec{b: body}
	resp.Corr = d.bytes()
	flags := d.byte_()
	if flags&^byte(queryOKHalted) != 0 {
		return fmt.Errorf("%w: bad query response flags", ErrCorruptFrame)
	}
	resp.Halted = flags&queryOKHalted != 0
	rem := d.uvarint()
	if rem > math.MaxInt32 {
		return fmt.Errorf("%w: bad remaining count", ErrCorruptFrame)
	}
	resp.Remaining = int(rem)
	n := d.count()
	if d.bad {
		return fmt.Errorf("%w: bad query response body", ErrCorruptFrame)
	}
	results := resp.Results[:0]
	if cap(results) < n {
		results = make([]Result, 0, n)
	}
	for i := 0; i < n; i++ {
		rf := d.byte_()
		if rf&^byte(resAbove|resNumeric|resFromSynthetic|resExhausted|resHasValue) != 0 {
			return fmt.Errorf("%w: bad result flags", ErrCorruptFrame)
		}
		r := Result{
			Above:         rf&resAbove != 0,
			Numeric:       rf&resNumeric != 0,
			FromSynthetic: rf&resFromSynthetic != 0,
			Exhausted:     rf&resExhausted != 0,
		}
		if rf&resHasValue != 0 {
			r.Value = d.float()
		}
		if d.bad {
			return fmt.Errorf("%w: truncated result", ErrCorruptFrame)
		}
		results = append(results, r)
	}
	if d.bad || len(d.b) != 0 {
		return fmt.Errorf("%w: bad query response body", ErrCorruptFrame)
	}
	resp.Results = results
	return nil
}

// ErrorFrame is a decoded OpError body: the HTTP API's stable error code
// vocabulary (bad_request, not_found, too_large, too_many_sessions,
// store_failure, rate_limited, unavailable) plus a retry hint. Body
// layout: code string, message string, uvarint retry-after seconds (0
// when not applicable). "unavailable" and "rate_limited" are the
// retryable codes; both always carry a non-zero retry hint.
type ErrorFrame struct {
	Code              string
	Message           string
	RetryAfterSeconds uint64
}

// AppendErrorBody appends e to dst.
func AppendErrorBody(dst []byte, e *ErrorFrame) []byte {
	dst = appendString(dst, e.Code)
	dst = appendString(dst, e.Message)
	return binary.AppendUvarint(dst, e.RetryAfterSeconds)
}

// DecodeErrorBody decodes an OpError body; strings are copied (errors are
// off the hot path and outlive the frame).
func DecodeErrorBody(body []byte, e *ErrorFrame) error {
	d := dec{b: body}
	e.Code = string(d.bytes())
	e.Message = string(d.bytes())
	e.RetryAfterSeconds = d.uvarint()
	if d.bad || len(d.b) != 0 {
		return fmt.Errorf("%w: bad error body", ErrCorruptFrame)
	}
	return nil
}

// AppendIDBody appends a bare session-ID body (OpStatus, OpDelete) to dst.
func AppendIDBody(dst []byte, id string) []byte {
	return appendString(dst, id)
}

// DecodeIDBody decodes a bare session-ID body, ALIASING the frame buffer.
func DecodeIDBody(body []byte) ([]byte, error) {
	d := dec{b: body}
	id := d.bytes()
	if d.bad || len(d.b) != 0 {
		return nil, fmt.Errorf("%w: bad id body", ErrCorruptFrame)
	}
	return id, nil
}
