package server

import "github.com/dpgo/svt/store"

// Stats is the GET /v1/stats response body: a service-wide aggregate
// assembled from per-shard atomic counters, so taking a snapshot never
// blocks query traffic and never takes a global lock.
type Stats struct {
	// Live is the current number of sessions (expired-but-unswept ones
	// included).
	Live int `json:"live"`
	// Shards is the number of lock stripes.
	Shards int `json:"shards"`
	// Created, Deleted and Expired count session lifecycle events since
	// the manager started.
	Created uint64 `json:"created"`
	Deleted uint64 `json:"deleted"`
	Expired uint64 `json:"expired"`
	// Recovered is how many sessions were rebuilt from the store when the
	// manager opened.
	Recovered int `json:"recovered,omitempty"`
	// Queries counts answered queries by mechanism. The key set is exactly
	// the manager's registered mechanisms (GET /v1/mechanisms), zero
	// counts included.
	Queries map[Mechanism]uint64 `json:"queries"`
	// TotalQueries is the sum over Queries.
	TotalQueries uint64 `json:"totalQueries"`
	// Positives counts above-threshold answers by mechanism, same key set
	// as Queries.
	Positives map[Mechanism]uint64 `json:"positives"`
	// Halts counts sessions that transitioned to the halted state by
	// mechanism (each session counted at most once, recovered-halted
	// sessions excluded), same key set as Queries.
	Halts map[Mechanism]uint64 `json:"halts"`
	// ShardLive is the live-session count per shard, for spotting skew.
	ShardLive []int `json:"shardLive"`
	// Store is the persistence backend's health, absent when the manager
	// runs without one.
	Store *store.Health `json:"store,omitempty"`
	// SnapshotFailures counts failed journal-compaction snapshots since the
	// manager opened; serving continues through them, but a store that can
	// no longer compact will eventually exhaust its disk.
	SnapshotFailures uint64 `json:"snapshotFailures,omitempty"`
	// LastSnapshotError is the most recent snapshot failure; "" when no
	// snapshot has failed since the last success (the failure condition is
	// current, not historical — SnapshotFailures keeps the history).
	LastSnapshotError string `json:"lastSnapshotError,omitempty"`
	// EncodeFailures counts HTTP responses whose JSON encode or write
	// failed after the status header was out (silently truncated from the
	// client's point of view). Filled by the HTTP layer; always zero when
	// Stats is read directly off the manager.
	EncodeFailures uint64 `json:"encodeFailures,omitempty"`
	// RateLimited counts rate_limited rejections per tenant on both edges
	// ("default" for requests without a tenant, OtherTenant past the
	// label-cardinality cap); absent until a request is rejected.
	RateLimited map[string]uint64 `json:"rateLimited,omitempty"`
	// SnapshotAgeSeconds is seconds since the last successful
	// journal-compaction snapshot, absent before the first success.
	SnapshotAgeSeconds *float64 `json:"snapshotAgeSeconds,omitempty"`
}

// Stats aggregates the per-shard counters. The snapshot is monotone but
// not atomic across shards — counts may be mid-update while it is taken —
// which is the usual and acceptable trade for a stats endpoint that never
// serializes the data path.
func (m *SessionManager) Stats() Stats {
	st := Stats{
		Live:      m.Len(),
		Shards:    len(m.shards),
		Queries:   make(map[Mechanism]uint64, len(m.mechNames)),
		Positives: make(map[Mechanism]uint64, len(m.mechNames)),
		Halts:     make(map[Mechanism]uint64, len(m.mechNames)),
		ShardLive: make([]int, len(m.shards)),
	}
	for i, sh := range m.shards {
		st.Created += sh.created.Load()
		st.Deleted += sh.deleted.Load()
		st.Expired += sh.expired.Load()
		for j, name := range m.mechNames {
			st.Queries[name] += sh.queries[j].Load()
			st.Positives[name] += sh.positives[j].Load()
			st.Halts[name] += sh.halts[j].Load()
		}
		sh.mu.RLock()
		st.ShardLive[i] = len(sh.sessions)
		sh.mu.RUnlock()
	}
	for _, n := range st.Queries {
		st.TotalQueries += n
	}
	st.Recovered = m.recoveredSessions
	if m.store != nil {
		health := m.store.Health()
		st.Store = &health
	}
	st.SnapshotFailures = m.snapFailures.Load()
	if msg, ok := m.snapLastErr.Load().(string); ok {
		st.LastSnapshotError = msg
	}
	if age, ok := m.SnapshotAge(); ok {
		secs := age.Seconds()
		st.SnapshotAgeSeconds = &secs
	}
	st.RateLimited = m.gate.limiter.rejectedByTenant()
	return st
}
