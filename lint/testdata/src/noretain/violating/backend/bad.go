package backend

import "svtfix/store"

var lastData []byte

// Bad retains Event.Data in every way the contract forbids.
type Bad struct {
	last  []byte
	queue [][]byte
	evs   []store.Event
	ch    chan []byte
}

// Append aliases the pooled buffer five different ways.
func (b *Bad) Append(ev store.Event) error {
	b.last = ev.Data   // want `stores Event data in field last`
	lastData = ev.Data // want `stores Event data in package-level variable lastData`
	d := ev.Data
	b.queue = append(b.queue, d) // want `stores Event data in field queue`
	b.ch <- ev.Data              // want `sends Event data to a channel`
	go func() {                  // want `starts a goroutine capturing Event data`
		_ = ev.Data
	}()
	return nil
}

// AppendBatch retains the whole slice and each element.
func (b *Bad) AppendBatch(evs []store.Event) error {
	b.evs = append(b.evs, evs...) // want `stores Event data in field evs`
	for _, ev := range evs {
		b.last = ev.Data[1:] // want `stores Event data in field last`
	}
	return nil
}

// Snapshot hands the events to a goroutine by argument.
func (b *Bad) Snapshot(evs []store.Event) error {
	go stash(evs) // want `passes Event data to a goroutine`
	return nil
}

func stash(evs []store.Event) { _ = evs }

// badRotation keeps the snapshot baseline it was asked to write.
type badRotation struct {
	evs []store.Event
}

// Commit stores the pooled baseline instead of encoding it.
func (r *badRotation) Commit(state []store.Event) error {
	r.evs = state // want `stores Event data in field evs`
	return nil
}
