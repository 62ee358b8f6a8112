package rchannel

import "repro/internal/telemetry"

// RegisterMetrics exports the endpoint's channel accounting under scope.
// The hot paths keep their existing mutex-guarded counters; the registry
// reads through at scrape time (counter-funcs), so instrumentation adds
// nothing to the per-frame cost.
func (e *Endpoint) RegisterMetrics(s *telemetry.Scope) {
	if s == nil {
		return
	}
	read := func(f func(ChannelStats) uint64) func() float64 {
		return func() float64 { return float64(f(e.Stats())) }
	}
	s.CounterFunc("gcs_rchannel_admitted_total",
		"Frames accepted by the incarnation handshake.",
		read(func(c ChannelStats) uint64 { return c.Admitted }))
	s.CounterFunc("gcs_rchannel_ghost_total",
		"Frames dropped: sent by a dead incarnation of the peer.",
		read(func(c ChannelStats) uint64 { return c.Ghost }))
	s.CounterFunc("gcs_rchannel_stale_total",
		"Frames dropped: addressed to a previous life of this endpoint.",
		read(func(c ChannelStats) uint64 { return c.Stale }))
	s.CounterFunc("gcs_rchannel_incarnation_resets_total",
		"Per-peer channel resets (peer restarted fresh).",
		read(func(c ChannelStats) uint64 { return c.Resets }))
	s.CounterFunc("gcs_rchannel_bad_total",
		"Frames dropped: undecodable or unexpected.",
		read(func(c ChannelStats) uint64 { return c.Bad }))
	s.CounterFunc("gcs_rchannel_retransmits_total",
		"Frames re-sent by the retransmit loop.",
		read(func(c ChannelStats) uint64 { return c.Retransmits }))
	s.CounterFunc("gcs_rchannel_backoff_resets_total",
		"Frames acknowledged after at least one retransmission.",
		read(func(c ChannelStats) uint64 { return c.BackoffResets }))
	s.GaugeFunc("gcs_rchannel_unacked",
		"Unacknowledged outbound frames, summed over peers.",
		func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			n := 0
			for _, out := range e.out {
				n += len(out.unacked())
			}
			return float64(n)
		})
}
