package backend

import "svtfix/store"

// Good copies before any retention: every sanctioned idiom in one place.
type Good struct {
	buf   []byte
	sizes []int
	keys  map[string]int
}

// Append copies bytes out of the pooled slice before keeping anything.
func (g *Good) Append(ev store.Event) error {
	g.buf = append(g.buf, ev.Data...) // byte-copy append: no alias survives
	dst := make([]byte, len(ev.Data))
	n := copy(dst, ev.Data)
	g.sizes = append(g.sizes, n)
	g.keys[string(ev.Data)] = int(ev.Data[0]) // string() copies; indexing reads a byte
	local := map[string][]byte{}
	local["d"] = ev.Data // local container dies with the call
	delete(local, "d")
	return nil
}

// AppendBatch reuses Append element-wise; passing events to ordinary calls
// is the callee's contract to uphold.
func (g *Good) AppendBatch(evs []store.Event) error {
	for _, ev := range evs {
		if err := g.Append(ev); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot encodes into a scratch buffer it owns.
func (g *Good) Snapshot(evs []store.Event) error {
	var scratch []byte
	for _, ev := range evs {
		scratch = append(scratch, ev.Data...)
	}
	g.buf = scratch
	return nil
}

// goodRotation copies the snapshot baseline before keeping it.
type goodRotation struct {
	buf []byte
}

// Commit encodes the baseline into a buffer it owns.
func (r *goodRotation) Commit(state []store.Event) error {
	for _, ev := range state {
		r.buf = append(r.buf, ev.Data...)
	}
	return nil
}
