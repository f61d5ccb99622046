package main

import (
	"math"
	"testing"
	"time"
)

func TestScheduleDue(t *testing.T) {
	s := schedule{t0: 1_000_000, compression: 1000} // 1 stream s per wall ms
	if got := s.due(1_000_000); got != 0 {
		t.Fatalf("due(t0) = %v, want 0", got)
	}
	if got := s.due(1_005_000); got != 5*time.Millisecond {
		t.Fatalf("due(t0+5s) = %v, want 5ms", got)
	}
}

func TestRungScheduleSpansDuration(t *testing.T) {
	ts := []int64{0, 10, 10, 10, 400, 1000}
	s := rungSchedule(ts, 2*time.Second)
	if got := s.due(ts[len(ts)-1]); got != 2*time.Second {
		t.Fatalf("last event due at %v, want 2s", got)
	}
	// A burst of equal timestamps stays a burst.
	if s.due(ts[1]) != s.due(ts[3]) {
		t.Fatal("equal stream times got different due times")
	}
	// A degenerate rung (one timestamp) must not divide by zero.
	if d := rungSchedule([]int64{5, 5}, time.Second).due(5); d != 0 {
		t.Fatalf("degenerate rung due %v", d)
	}
}

func TestNextBatchIsSelfClocking(t *testing.T) {
	dues := []time.Duration{0, 1, 2, 3, 10, 11, 12}
	cases := []struct {
		i     int
		now   time.Duration
		limit int
		want  int
	}{
		{0, 0, 10, 1},  // only the first is due
		{0, 3, 10, 4},  // everything due so far
		{0, 3, 2, 2},   // capped
		{4, 5, 10, 5},  // never empty, even when not yet due
		{4, 99, 10, 7}, // runs to the end
	}
	for _, c := range cases {
		if got := nextBatch(dues, c.i, c.now, c.limit); got != c.want {
			t.Errorf("nextBatch(i=%d, now=%v, limit=%d) = %d, want %d", c.i, c.now, c.limit, got, c.want)
		}
	}
}

func TestClientLatenessExcludesServerWait(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		r    sendRecord
		want time.Duration
	}{
		{sendRecord{due: 10 * ms, prevDone: 0, sent: 10 * ms}, 0},            // on time
		{sendRecord{due: 10 * ms, prevDone: 0, sent: 13 * ms}, 3 * ms},       // generator slept late
		{sendRecord{due: 10 * ms, prevDone: 20 * ms, sent: 20 * ms}, 0},      // waited for the server
		{sendRecord{due: 10 * ms, prevDone: 20 * ms, sent: 21 * ms}, 1 * ms}, // then dawdled
	}
	for i, c := range cases {
		if got := c.r.clientLate(); got != c.want {
			t.Errorf("case %d: clientLate = %v, want %v", i, got, c.want)
		}
	}
}

func TestJudgeRungChargesStallsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	recs := []sendRecord{
		{due: 0, sent: 0, acked: 50 * ms, ok: true},
		// Due at 5ms, sent after the stall, acked at 52ms: 47ms.
		{due: 5 * ms, prevDone: 50 * ms, sent: 50 * ms, acked: 52 * ms, ok: true},
		{due: 60 * ms, prevDone: 52 * ms, sent: 60 * ms, acked: 61 * ms, ok: true},
	}
	v := judgeRung(recs, 40*ms)
	if v.Batches != 3 || v.AckP50Ms != 47 || v.AckP99Ms != 50 {
		t.Fatalf("batches %d p50 %v p99 %v, want 3, 47 and 50", v.Batches, v.AckP50Ms, v.AckP99Ms)
	}
	if v.BacklogGrew {
		t.Fatal("the last batch waited 1ms: the backlog drained")
	}
	if v.ClientLateMax != 0 {
		t.Fatalf("client lateness %v, want 0 (the wait was the server's)", v.ClientLateMax)
	}
	v = judgeRung(recs[:2], 40*ms)
	if !v.BacklogGrew {
		t.Fatal("the last batch waited 47ms > 40ms: the backlog should count as grown")
	}
}

func TestJudgeRungRefusedMissesEveryLimit(t *testing.T) {
	recs := []sendRecord{{due: 0, acked: time.Millisecond, ok: false}}
	v := judgeRung(recs, time.Hour)
	if v.Refused != 1 || !math.IsInf(v.AckP50Ms, 1) || !v.BacklogGrew {
		t.Fatalf("refused %d p50 %v grew %v, want 1, +Inf, true", v.Refused, v.AckP50Ms, v.BacklogGrew)
	}
}

func TestRuleLagsCountPassesFromBaseline(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	polls := []poll{{at: at(0), passes: 4}, {at: at(20), passes: 5}, {at: at(40), passes: 5}, {at: at(60), passes: 6}}
	got := ruleLags(polls, 4, []time.Time{at(10), at(30), at(100)})
	want := []float64{10, 30}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
