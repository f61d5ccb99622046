package main

import (
	"math"
	"time"
)

// A schedule maps the stream timestamps of one rung of the open-loop
// ladder onto wall-clock due times at a fixed time compression: an event
// stamped t is due at start + (t - t0)/compression. Bursts in stream time
// therefore arrive as bursts in wall time.
type schedule struct {
	t0          int64   // stream time (ms) of the rung's first event
	compression float64 // stream ms per wall ms
}

// due returns the wall-clock offset from the rung start at which an event
// stamped t (stream ms) is due.
func (s schedule) due(t int64) time.Duration {
	return time.Duration(float64(t-s.t0) / s.compression * float64(time.Millisecond))
}

// rungSchedule fixes the compression at which the n events stamped ts
// (sorted) span exactly dur of wall time, so the rung offers its nominal
// average rate while bursts inside it keep their shape.
func rungSchedule(ts []int64, dur time.Duration) schedule {
	span := float64(ts[len(ts)-1] - ts[0])
	return schedule{t0: ts[0], compression: math.Max(span, 1) / ms(dur)}
}

// nextBatch returns the end of the batch that starts at event i when the
// sender is ready at now: every event already due, at least one, at most
// limit. Batches are self-clocking: the longer the previous request took,
// the more events are due when the next one is cut.
func nextBatch(dues []time.Duration, i int, now time.Duration, limit int) int {
	j := i + 1
	for j < len(dues) && j-i < limit && dues[j] <= now {
		j++
	}
	return j
}

// sendRecord is what the sender observed for one batch, as offsets from
// the rung start.
type sendRecord struct {
	due      time.Duration // when the batch's first (oldest) event was due
	prevDone time.Duration // when the connection became free (previous ack)
	sent     time.Duration // when the request was written
	acked    time.Duration // when the response arrived
	ok       bool          // HTTP 200 with every event accepted
	lo, hi   int           // the rung's events [lo, hi) the batch carried
	accepted int           // how many of them the daemon took
}

// latency is the batch's ack latency timed from its due time, so a stall
// is charged to every batch queued behind it.
func (r sendRecord) latency() time.Duration { return r.acked - r.due }

// clientLate is how late the generator itself sent the batch: the time
// between the moment it could have sent (due, or the connection freed up,
// whichever is later) and the actual send. Waiting for the previous
// response is the server's doing and is not counted here.
func (r sendRecord) clientLate() time.Duration {
	ready := max(r.due, r.prevDone)
	if r.sent < ready {
		return 0
	}
	return r.sent - ready
}

// rungVerdict summarises one rung of the ladder.
type rungVerdict struct {
	Batches       int
	Refused       int
	AckP50Ms      float64
	AckP99Ms      float64
	LastAckMs     float64
	ClientLateP99 float64
	ClientLateMax float64
	// BacklogGrew is set when the last batch still waited longer than the
	// latency limit: the queue the rung built had not drained.
	BacklogGrew bool
	// ClientBound is set when the generator ran late for its own reasons
	// (p99 client lateness above clientLateLimit): the rung measured the
	// load generator, not the daemon.
	ClientBound bool
}

// clientLateLimit is the generator lateness beyond which a rung is
// flagged as client-bound.
const clientLateLimit = 5 * time.Millisecond

// judgeRung computes a rung's latency summary. A batch's ack latency
// runs from its due time — that of its oldest event — to its 200, so a
// batch that waited behind a stall is charged the wait. A refused batch
// counts as missing every latency limit, so it is given an infinite
// latency.
func judgeRung(recs []sendRecord, limit time.Duration) rungVerdict {
	v := rungVerdict{Batches: len(recs)}
	if len(recs) == 0 {
		return v
	}
	lat := make([]float64, len(recs))
	late := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = ms(r.latency())
		if !r.ok {
			v.Refused++
			lat[i] = math.Inf(1)
		}
		late[i] = ms(r.clientLate())
		v.ClientLateMax = math.Max(v.ClientLateMax, late[i])
	}
	v.AckP50Ms = percentile(lat, 0.50)
	v.AckP99Ms = percentile(lat, 0.99)
	v.LastAckMs = lat[len(lat)-1]
	v.ClientLateP99 = percentile(late, 0.99)
	v.BacklogGrew = v.LastAckMs > ms(limit)
	v.ClientBound = v.ClientLateP99 > ms(clientLateLimit)
	return v
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
