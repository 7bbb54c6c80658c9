package server

import (
	"encoding/json"
	"math"
	"strconv"
)

// decode decodes a /query body and returns its items: the "queries"
// array when the body has one, else the body's own query. A body of the
// canonical shape takes decodeCanonical, which allocates nothing once the
// scratch's arenas are warm. Every other body goes through json.Unmarshal
// into a zeroed sc.req, so it decodes, or fails with the same error, as
// it always has.
//
//svt:hotpath
func (sc *queryScratch) decode(body []byte, maxBatch int) ([]QueryItem, error) {
	if items, ok := sc.decodeCanonical(body, maxBatch); ok {
		return items, nil
	}
	sc.req = queryRequest{}
	if err := json.Unmarshal(body, &sc.req); err != nil {
		return nil, err
	}
	if sc.req.Queries != nil {
		return sc.req.Queries, nil
	}
	sc.items = append(sc.items[:0], sc.req.QueryItem)
	return sc.items, nil
}

// decodeCanonical decodes a body of the canonical shape into sc's arenas
// and reports false for any other body. The canonical shape is one JSON
// object, with only JSON whitespace around it, whose members are "query"
// (a number), "threshold" (a number) and "buckets" (an array of integers
// of at most 18 digits), plus, at top level only, "queries" (an array of
// at most maxBatch objects with those three members). Each key appears at
// most once per object, in lower case and without escapes, and every
// number parses with strconv.ParseFloat. json.Unmarshal decodes every
// such body to the same items; anything else, including an over-cap batch
// whose count the error must report, is left to it.
//
//svt:hotpath
func (sc *queryScratch) decodeCanonical(body []byte, maxBatch int) ([]QueryItem, bool) {
	s := jsonScanner{b: body}
	sc.items, sc.thresholds, sc.buckets = sc.items[:0], sc.thresholds[:0], sc.buckets[:0]
	batch, ok := sc.object(&s, true, maxBatch)
	if !ok || !s.atEnd() {
		return nil, false
	}
	// The arenas have stopped growing, so the threshold pointers are
	// taken now.
	for i := range sc.items {
		if !math.IsNaN(sc.thresholds[i]) {
			sc.items[i].Threshold = &sc.thresholds[i]
		}
	}
	// Item 0 is the top-level object's own query.
	if batch {
		return sc.items[1:], true
	}
	return sc.items[:1], true
}

// Member bits of one query object, to reject a repeated key.
const (
	memberQuery = 1 << iota
	memberThreshold
	memberBuckets
	memberQueries
)

// object decodes one query object into a new item at the end of the
// arenas. Its threshold slot holds NaN unless the object has a
// "threshold": no JSON number parses to NaN. With top set it also takes
// a "queries" array, whose items follow its own, and reports whether it
// had one.
func (sc *queryScratch) object(s *jsonScanner, top bool, maxBatch int) (batch, ok bool) {
	if !s.punct('{') {
		return false, false
	}
	k := len(sc.items)
	sc.items = append(sc.items, QueryItem{})
	sc.thresholds = append(sc.thresholds, math.NaN())
	if s.punct('}') {
		return false, true
	}
	seen := 0
	for {
		key, ok := s.key()
		if !ok {
			return false, false
		}
		member := 0
		switch string(key) {
		case "query":
			member = memberQuery
			sc.items[k].Query, ok = s.float()
		case "threshold":
			member = memberThreshold
			sc.thresholds[k], ok = s.float()
		case "buckets":
			member = memberBuckets
			lo := len(sc.buckets)
			ok = sc.bucketList(s)
			// A full-slice expression, as in the wire decoder: a later
			// arena grow copies rather than writing past this view.
			sc.items[k].Buckets = sc.buckets[lo:len(sc.buckets):len(sc.buckets)]
		case "queries":
			member, batch = memberQueries, true
			ok = top && sc.batch(s, maxBatch)
		}
		if member == 0 || seen&member != 0 || !ok {
			return false, false
		}
		seen |= member
		if !s.punct(',') {
			return batch, s.punct('}')
		}
	}
}

// batch decodes a "queries" array of at most maxBatch objects.
func (sc *queryScratch) batch(s *jsonScanner, maxBatch int) bool {
	if !s.punct('[') {
		return false
	}
	if s.punct(']') {
		return true
	}
	for n := 0; n < maxBatch; n++ {
		if _, ok := sc.object(s, false, maxBatch); !ok {
			return false
		}
		if !s.punct(',') {
			return s.punct(']')
		}
	}
	return false
}

// bucketList decodes a "buckets" array onto the bucket arena.
func (sc *queryScratch) bucketList(s *jsonScanner) bool {
	if !s.punct('[') {
		return false
	}
	if s.punct(']') {
		return true
	}
	for {
		b, ok := s.integer()
		if !ok {
			return false
		}
		sc.buckets = append(sc.buckets, b)
		if !s.punct(',') {
			return s.punct(']')
		}
	}
}

// jsonScanner reads the tokens of decodeCanonical's shape from a JSON
// text. Each token method skips the whitespace before its token and
// reports false when the text does not continue with it.
type jsonScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *jsonScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// punct reads the punctuation byte c.
func (s *jsonScanner) punct(c byte) bool {
	s.space()
	return s.eat(c)
}

// eat consumes c if it is the next byte, skipping no whitespace.
func (s *jsonScanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// atEnd reports whether only whitespace is left.
func (s *jsonScanner) atEnd() bool {
	s.space()
	return s.i == len(s.b)
}

// key reads an object key without escapes, and the colon after it.
func (s *jsonScanner) key() ([]byte, bool) {
	if !s.punct('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			key := s.b[start:s.i]
			s.i++
			return key, s.punct(':')
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// number reads a number of the JSON grammar and returns its text.
func (s *jsonScanner) number() ([]byte, bool) {
	s.space()
	start := s.i
	s.eat('-')
	if !s.eat('0') && !s.digits() {
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
	return s.b[start:s.i], true
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty. The loop runs on locals: through s, every step would
// reload and store the cursor.
func (s *jsonScanner) digits() bool {
	b, i := s.b, s.i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	n := i - s.i
	s.i = i
	return n > 0
}

// float reads a number as json.Unmarshal reads one into a float64.
func (s *jsonScanner) float() (float64, bool) {
	text, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(text), 64)
	return f, err == nil
}

// integer reads an integer of at most 18 digits, with no fraction and no
// exponent: a number json.Unmarshal reads into an int the same way.
func (s *jsonScanner) integer() (int, bool) {
	text, ok := s.number()
	if !ok {
		return 0, false
	}
	neg := text[0] == '-'
	if neg {
		text = text[1:]
	}
	if len(text) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range text {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return int(n), int64(int(n)) == n
}
