package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// sendClosed feeds events as fast as acks return (one batch in flight),
// resuming after the last accepted line on 429/503. It returns how many
// events were acked.
func sendClosed(c *http.Client, base string, payloads [][]byte, sizes []int) (int64, error) {
	var acked int64
	for i, body := range payloads {
		for tries := 0; ; tries++ {
			status, n, err := postBatch(c, base, body)
			if err != nil {
				return acked, err
			}
			if status == http.StatusOK {
				acked += int64(sizes[i])
				break
			}
			if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable || tries > 200 {
				return acked, fmt.Errorf("prefix batch %d: HTTP %d", i, status)
			}
			// Resume after the accepted lines, as the resume contract says.
			acked += int64(n)
			body = dropLines(body, n)
			sizes[i] -= n
			time.Sleep(50 * time.Millisecond)
		}
	}
	return acked, nil
}

// dropLines removes the first n newline-terminated lines of body.
func dropLines(body []byte, n int) []byte {
	for ; n > 0 && len(body) > 0; n-- {
		i := 0
		for i < len(body) && body[i] != '\n' {
			i++
		}
		body = body[min(i+1, len(body)):]
	}
	return body
}

// sendOpen replays one rung open-loop on one connection. Event i is due
// at dues[i]; whenever the connection is free the sender posts every
// event already due (at most maxBatch), or sleeps until the next one is.
// A refused batch is not retried — the schedule does not wait — and
// each record counts the events the daemon took.
func sendOpen(c *http.Client, base string, start time.Time, dues []time.Duration, lines [][]byte) []sendRecord {
	var (
		recs []sendRecord
		free time.Duration
		body []byte
	)
	for i := 0; i < len(dues); {
		if d := time.Until(start.Add(dues[i])); d > 0 {
			time.Sleep(d)
		}
		now := time.Since(start)
		j := nextBatch(dues, i, now, maxBatch)
		body = body[:0]
		for _, l := range lines[i:j] {
			body = append(body, l...)
		}
		r := sendRecord{due: dues[i], prevDone: free, sent: time.Since(start), lo: i, hi: j}
		status, n, err := postBatch(c, base, body)
		r.acked = time.Since(start)
		r.ok = err == nil && status == http.StatusOK
		if r.ok {
			n = j - i
		}
		r.accepted = n
		recs = append(recs, r)
		free = r.acked
		i = j
	}
	return recs
}

// poll is one pass of the second connection over /warnings and /metrics.
type poll struct {
	at       time.Time
	passes   float64
	scrape   time.Duration
	warnings []wireWarning
}

// poller watches the daemon on its own connection until halted.
type poller struct {
	c     *http.Client
	base  string
	every time.Duration
	stop  chan struct{}
	done  chan struct{}

	mu    sync.Mutex
	polls []poll
	err   error
}

func startPoller(base string, every time.Duration) *poller {
	p := &poller{c: newClient(), base: base, every: every, stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *poller) run() {
	defer close(p.done)
	t := time.NewTicker(p.every)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		w, err := getWarnings(p.c, p.base)
		if err != nil {
			p.fail(err)
			return
		}
		t0 := time.Now()
		m, err := getMetrics(p.c, p.base)
		if err != nil {
			p.fail(err)
			return
		}
		pl := poll{at: time.Now(), passes: m["train_passes_total"], scrape: time.Since(t0), warnings: w}
		p.mu.Lock()
		p.polls = append(p.polls, pl)
		p.mu.Unlock()
	}
}

func (p *poller) fail(err error) {
	p.mu.Lock()
	p.err = err
	p.mu.Unlock()
}

// halt stops the poller, waits for it, and returns what it saw.
func (p *poller) halt() ([]poll, error) {
	close(p.stop)
	<-p.done
	p.c.CloseIdleConnections()
	return p.polls, p.err
}

// snapshot copies the polls seen so far.
func (p *poller) snapshot() []poll {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]poll(nil), p.polls...)
}

// passesAt returns the last train_passes_total observed at or before t.
func (p *poller) passesAt(t time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	v := 0.0
	for _, pl := range p.polls {
		if pl.at.After(t) {
			break
		}
		v = pl.passes
	}
	return v
}

// firstSeen maps each warning to the first poll that returned it.
func firstSeen(polls []poll) map[wireWarning]time.Time {
	seen := map[wireWarning]time.Time{}
	for _, pl := range polls {
		for _, w := range pl.warnings {
			if _, ok := seen[w]; !ok {
				seen[w] = pl.at
			}
		}
	}
	return seen
}
