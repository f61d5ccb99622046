package main

import (
	"bytes"
	"fmt"

	"repro"
	"repro/internal/raslog"
)

// feed is the generated serving input: one SDSC scale-1 bgsim log with
// log storms on, replayed in epochs so any number of events can be drawn
// while stream time stays monotone (epoch k is shifted by k spans).
type feed struct {
	base   []raslog.Event
	spanMs int64
	parts  []int64 // cursor at which each independently seeded part starts
}

// feedParts is how many independently seeded logs one feed splices
// together. A run then averages over several draws of the generator's
// regimes and storms instead of riding on one, so what a seed changes is
// the input, not the figures' scale.
const feedParts = 8

// newFeed generates the feed for a seed: feedParts SDSC logs of
// weeks/feedParts each, from seeds derived from this one, laid end to
// end in stream time. Only the seed varies between runs; the shape
// (system, length, storms) is fixed per workload.
func newFeed(seed uint64, weeks int) (*feed, error) {
	var (
		all   []raslog.Event
		parts []int64
	)
	for p := uint64(0); p < feedParts; p++ {
		parts = append(parts, int64(len(all)))
		cfg := repro.SDSC(seed*feedParts+p).Scaled(weeks/feedParts, 1)
		cfg.LogStormsPerWeek = 14
		cfg.LogStormFactor = 20
		cfg.LogStormMinutes = 10
		l, err := repro.Generate(cfg)
		if err != nil {
			return nil, err
		}
		if l.Len() < 2 {
			return nil, fmt.Errorf("feed: generated log has %d events", l.Len())
		}
		shift := int64(0)
		if len(all) > 0 {
			// Whole seconds past the previous part's last event.
			shift = (all[len(all)-1].Time-l.Events[0].Time)/1000*1000 + 1000
		}
		for _, e := range l.Events {
			e.Time += shift
			all = append(all, e)
		}
	}
	// Round-trip through the text codec: the wire carries whole seconds,
	// and the in-process reference must see exactly what the daemon sees.
	wire, err := raslog.ReadLog(bytes.NewReader(encode(all)), "feed")
	if err != nil {
		return nil, err
	}
	span := wire.Events[wire.Len()-1].Time - wire.Events[0].Time
	// Whole seconds: the text codec carries seconds, so a sub-second
	// epoch offset could make an epoch's first event precede the last.
	return &feed{base: wire.Events, spanMs: (span/1000 + 1) * 1000, parts: parts}, nil
}

// at returns event c of the endless feed.
func (f *feed) at(c int64) raslog.Event {
	n := int64(len(f.base))
	e := f.base[c%n]
	e.Time += (c / n) * f.spanMs
	return e
}

// naturalEPS is the feed's own event rate in events per stream second.
func (f *feed) naturalEPS() float64 {
	return float64(len(f.base)) / (float64(f.spanMs) / 1000)
}

// cursorAfter returns the first cursor at least w weeks of stream time
// after cursor c.
func (f *feed) cursorAfter(c int64, w float64) int64 {
	limit := f.at(c).Time + int64(w*raslog.MillisPerWeek)
	for f.at(c).Time < limit {
		c++
	}
	return c
}

// span64 is a half-open range of feed cursors.
type span64 struct{ lo, hi int64 }

// events materialises cursors [lo, hi).
func (f *feed) events(lo, hi int64) []raslog.Event {
	out := make([]raslog.Event, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, f.at(c))
	}
	return out
}

// lines renders each event as its own newline-terminated text line, so
// the sender can cut batches of any size without re-encoding.
func lines(events []raslog.Event) [][]byte {
	out := make([][]byte, len(events))
	b := encode(events)
	for i := range out {
		j := bytes.IndexByte(b, '\n') + 1
		out[i], b = b[:j:j], b[j:]
	}
	return out
}

// encode renders events in the text codec POST /ingest/batch reads.
func encode(events []raslog.Event) []byte {
	l := raslog.NewLog("feed", len(events))
	l.Events = append(l.Events, events...)
	var b bytes.Buffer
	if _, err := raslog.WriteLog(&b, l); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return b.Bytes()
}
