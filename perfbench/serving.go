package main

import (
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/raslog"
)

// serveFlags are the cmd/serve flags of a workload (the address is added
// by startDaemon).
func (w *workload) serveFlags(stateDir string) []string {
	f := []string{
		"-train", strconv.FormatFloat(w.trainWeeks, 'g', -1, 64),
		"-retrain", strconv.FormatFloat(w.retrainWeeks, 'g', -1, 64),
	}
	if stateDir != "" {
		f = append(f, "-state-dir", stateDir)
	}
	return f
}

// served is what the serving phase measured.
type served struct {
	setupS      []float64
	attempted   int64    // events offered in set-up and on the rungs up to the nominal one
	refused     int64    // events of refused batches on those rungs
	lostAcked   int64    // acked events missing after the crash-restart
	accepted    []span64 // feed cursor ranges the daemon accepted, in order
	ladderFrom  int64    // stream time of the first ladder event
	ladderTo    int64    // stream time of the last ladder event
	rungs       []rungResult
	sustainable float64
	nominal     rungResult
	peakRSSKiB  int64
	warnLagMs   []float64
	ruleLagMs   []float64
	scrapeUs    []float64
	warnings    []wireWarning
	ingestOK    bool // every acked ladder event was ingested
}

// rungResult is one rung of the ladder.
type rungResult struct {
	Rate      float64
	Events    int64
	Verdict   rungVerdict
	LateDrops int64
	Overflow  float64 // share of sequenced events released by the buffer cap
	CPUUs     float64 // daemon CPU per sequenced event
	RuleLagMs []float64
	RuleGrew  bool
	Valid     bool // sustainable
}

// rungDur is rung i's share of the measured time.
func rungDur(i int, dur time.Duration) time.Duration {
	if i == nominalRung {
		return dur / 2
	}
	return dur / 2 / time.Duration(len(rungs)-1)
}

// quiesce waits until the daemon's pipeline is empty, no pass is
// training, and the sequenced count has stopped moving.
func quiesce(c *http.Client, base string, timeout time.Duration) (serverStats, error) {
	deadline := time.Now().Add(timeout)
	var prev serverStats
	stable := 0
	for time.Now().Before(deadline) {
		s, err := getStats(c, base)
		if err != nil {
			return s, err
		}
		if s.idle() && s.Sequenced == prev.Sequenced {
			stable++
		} else {
			stable = 0
		}
		if stable >= 3 {
			return s, nil
		}
		prev = s
		time.Sleep(20 * time.Millisecond)
	}
	return prev, fmt.Errorf("daemon did not quiesce within %v", timeout)
}

// prefixPayloads cuts feed cursors [lo, hi) into closed-loop batches.
func prefixPayloads(f *feed, lo, hi int64) ([][]byte, []int) {
	var bodies [][]byte
	var sizes []int
	for c := lo; c < hi; c += maxBatch {
		end := min(c+maxBatch, hi)
		bodies = append(bodies, encode(f.events(c, end)))
		sizes = append(sizes, int(end-c))
	}
	return bodies, sizes
}

// prefixPart is the feed part whose start set-up i cuts its warm prefix
// from. Set-ups rotate through the parts, so setup_s averages over several
// of the seed's independent draws; the last set-up, whose daemon serves
// the ladder, starts at the feed start so the ladder continues after it.
func prefixPart(i int) int {
	if i == setups-1 {
		return 0
	}
	return (i + 1) % feedParts
}

// setupDurable times crash recovery. It builds crash images from warm
// prefixes cut at three parts of the feed: a fresh durable daemon gets
// the prefix as fast as acks return and is killed with SIGKILL at
// quiescence. The daemon is then restarted on copies of each image, each
// restart timed from exec until /healthz answers. The last restart runs
// on the image cut at the feed start itself and is left running.
func setupDurable(e *env, w *workload, f *feed, c *http.Client, out *served) (*daemon, int64, error) {
	logPath := filepath.Join(e.work, "serve.log")
	const images = 3
	var (
		d *daemon
		n int64
	)
	for k := 0; k < images; k++ {
		// The images take the set-up slots' parts, three restarts each.
		part := prefixPart((k+1)*setups/images - 1)
		state := filepath.Join(e.work, fmt.Sprintf("state-%d", part))
		lo := f.parts[part]
		hi := f.cursorAfter(lo, w.prefixWeeks)
		acked, err := crashImage(e, w, f, c, state, lo, hi, logPath)
		out.attempted += hi - lo
		if err != nil {
			return nil, 0, err
		}
		for r := 0; r < setups/images; r++ {
			keep := k == images-1 && r == setups/images-1
			dir := state
			if !keep {
				dir = state + "-copy"
				if err := copyDir(state, dir); err != nil {
					return nil, 0, err
				}
			}
			if d, err = startDaemon(e.serveBin, w.serveFlags(dir), logPath); err != nil {
				return nil, 0, err
			}
			took, err := d.waitHealthy(c, 60*time.Second)
			if err != nil {
				d.kill()
				return nil, 0, err
			}
			out.setupS = append(out.setupS, took.Seconds())
			if r == 0 || keep {
				st, err := getStats(c, d.base)
				if err != nil || st.Recovery == nil {
					d.kill()
					return nil, 0, fmt.Errorf("restarted daemon reports no recovery: %v", err)
				}
				resume := int64(st.Recovery.ResumeSeq)
				if r == 0 {
					out.lostAcked += max(acked-resume, 0)
					logf("%s: image %d: %d events acked, %d durable after kill -9 (%d acked events lost)",
						w.name, part, acked, resume, max(acked-resume, 0))
				}
				if keep {
					n = hi
					out.accepted = []span64{{0, min(resume, n)}}
				}
			}
			if !keep {
				d.kill()
				c.CloseIdleConnections()
				if err := os.RemoveAll(dir); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	return d, n, nil
}

// crashImage feeds cursors [lo, hi) to a fresh durable daemon on dir as
// fast as acks return, waits for quiescence and kills it with SIGKILL.
// It returns how many events were acked.
func crashImage(e *env, w *workload, f *feed, c *http.Client, dir string, lo, hi int64, logPath string) (int64, error) {
	d, err := startDaemon(e.serveBin, w.serveFlags(dir), logPath)
	if err != nil {
		return 0, err
	}
	defer c.CloseIdleConnections()
	defer d.kill()
	if _, err := d.waitHealthy(c, 30*time.Second); err != nil {
		return 0, err
	}
	bodies, sizes := prefixPayloads(f, lo, hi)
	acked, err := sendClosed(c, d.base, bodies, sizes)
	if err != nil {
		return acked, err
	}
	_, err = quiesce(c, d.base, 30*time.Second)
	return acked, err
}

// setupChurn spawns in-memory daemons and feeds each a warm prefix as
// fast as acks return, timing spawn until the first rule set is live.
// The last daemon is left running.
func setupChurn(e *env, w *workload, f *feed, c *http.Client, out *served) (*daemon, int64, error) {
	logPath := filepath.Join(e.work, "serve.log")
	var (
		d *daemon
		n int64
	)
	for i := 0; i < setups; i++ {
		lo := f.parts[prefixPart(i)]
		n = f.cursorAfter(lo, w.prefixWeeks)
		bodies, sizes := prefixPayloads(f, lo, n)
		var err error
		if d, err = startDaemon(e.serveBin, w.serveFlags(""), logPath); err != nil {
			return nil, 0, err
		}
		if _, err := d.waitHealthy(c, 30*time.Second); err != nil {
			d.kill()
			return nil, 0, err
		}
		if _, err := sendClosed(c, d.base, bodies, sizes); err != nil {
			d.kill()
			return nil, 0, err
		}
		out.attempted += n - lo
		// /stats, not /metrics: a scrape costs the daemon enough CPU to
		// slow the very training pass being waited for.
		for {
			st, err := getStats(c, d.base)
			if err != nil {
				d.kill()
				return nil, 0, err
			}
			if st.trained() {
				break
			}
			if time.Since(d.started) > 60*time.Second {
				d.kill()
				return nil, 0, fmt.Errorf("no rule set within 60s of spawn")
			}
			time.Sleep(2 * time.Millisecond)
		}
		out.setupS = append(out.setupS, time.Since(d.started).Seconds())
		if i < setups-1 {
			d.kill()
			c.CloseIdleConnections()
		}
	}
	if _, err := quiesce(c, d.base, 30*time.Second); err != nil {
		d.kill()
		return nil, 0, err
	}
	out.accepted = []span64{{0, n}}
	return d, n, nil
}

// copyDir copies a flat state directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// plannedRung is a rung whose due times and wire lines are built before
// the ladder starts, so the generator only sends while it measures.
type plannedRung struct {
	rate   float64
	sched  schedule
	cursor int64   // first feed cursor
	ts     []int64 // stream times of the rung's events
	dues   []time.Duration
	lines  [][]byte
}

// planRung takes the next rate*dur events of the feed and schedules them
// to span dur.
func planRung(f *feed, cursor int64, rate float64, dur time.Duration) plannedRung {
	n := int64(rate * dur.Seconds())
	r := plannedRung{rate: rate, cursor: cursor}
	events := f.events(cursor, cursor+n)
	for _, e := range events {
		r.ts = append(r.ts, e.Time)
	}
	r.sched = rungSchedule(r.ts, dur)
	for _, t := range r.ts {
		r.dues = append(r.dues, r.sched.due(t))
	}
	r.lines = lines(events)
	return r
}

func (r plannedRung) events() int64 { return int64(len(r.ts)) }

// runServing runs set-up, the ladder and the correctness bookkeeping of
// a serving workload.
func runServing(e *env, w *workload, f *feed, dur time.Duration) (*served, error) {
	out := &served{}
	c := newClient()
	defer c.CloseIdleConnections()
	var (
		d      *daemon
		cursor int64
		err    error
	)
	if w.durable {
		d, cursor, err = setupDurable(e, w, f, c, out)
	} else {
		d, cursor, err = setupChurn(e, w, f, c, out)
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.kill()

	// Anchor the ladder past the daemon's watermark: the feed continues
	// after the prefix, so this holds unless the daemon saw events the
	// benchmark did not send.
	st, err := getStats(c, d.base)
	if err != nil {
		return nil, err
	}
	if f.at(cursor).Time <= st.Watermark {
		return nil, fmt.Errorf("ladder feed at %d is not past the watermark %d", f.at(cursor).Time, st.Watermark)
	}

	out.ladderFrom = f.at(cursor).Time

	pl := startPoller(d.base, 20*time.Millisecond)
	retrainMs := int64(w.retrainWeeks * raslog.MillisPerWeek)
	var ackedLadder int64
	ingested0 := st.Ingested
	type dueAt struct {
		r     plannedRung
		start time.Time
	}
	var rungStarts []dueAt
	stillValid := true
	for i, rate := range rungs {
		// Built between rungs, while the daemon is idle, so the generator
		// only sends while it measures; the collection keeps the benchmark's
		// own garbage out of the rung.
		r := planRung(f, cursor, rate, rungDur(i, dur))
		cursor += r.events()
		runtime.GC()
		before, err := getStats(c, d.base)
		if err != nil {
			pl.halt()
			return nil, err
		}
		cpu0, err := procCPU(d.pid())
		if err != nil {
			pl.halt()
			return nil, err
		}
		start := time.Now()
		passes0 := pl.passesAt(start)
		// Kept for the warning lags: the schedule and stream times only.
		rungStarts = append(rungStarts, dueAt{plannedRung{rate: r.rate, sched: r.sched, ts: r.ts}, start})
		recs := sendOpen(c, d.base, start, r.dues, r.lines)
		after, err := quiesce(c, d.base, 30*time.Second)
		if err != nil {
			pl.halt()
			return nil, err
		}
		cpu1, err := procCPU(d.pid())
		if err != nil {
			pl.halt()
			return nil, err
		}
		res := rungResult{Rate: r.rate, Events: r.events(), Verdict: judgeRung(recs, ackLimit)}
		var refused int64
		for _, b := range recs {
			out.accepted = append(out.accepted, span64{r.cursor + int64(b.lo), r.cursor + int64(b.lo+b.accepted)})
			ackedLadder += int64(b.accepted)
			refused += int64(b.hi - b.lo - b.accepted)
		}
		// Operations are the events of the rungs up to the nominal one,
		// which every run sends in full. The rungs past it probe capacity
		// and stop at the knee, which moves with the machine; a refusal
		// there only makes its rung unsustainable.
		if i <= nominalRung {
			out.attempted += r.events()
			out.refused += refused
		}
		res.LateDrops = after.LateDropped - before.LateDropped
		if seq := after.Sequenced - before.Sequenced; seq > 0 {
			res.Overflow = float64(after.ReorderOverflow-before.ReorderOverflow) / float64(seq)
			res.CPUUs = float64((cpu1 - cpu0).Microseconds()) / float64(seq)
		}
		// Rule lag: boundary k of this rung is the k-th pass after the rung
		// started, due with the first event at or after the boundary.
		var dues []time.Time
		for b := before.NextRetrain; b > 0 && b <= r.ts[len(r.ts)-1]; b += retrainMs {
			for j, t := range r.ts {
				if t >= b {
					dues = append(dues, start.Add(r.dues[j]))
					break
				}
			}
		}
		polls := pl.snapshot()
		res.RuleLagMs = ruleLags(polls, passes0, dues)
		out.ruleLagMs = append(out.ruleLagMs, res.RuleLagMs...)
		if n := len(res.RuleLagMs); n >= 2 && !w.durable {
			cadence := ms(r.sched.due(r.ts[0] + retrainMs))
			res.RuleGrew = res.RuleLagMs[n-1]-res.RuleLagMs[0] > cadence
		}
		v := res.Verdict
		res.Valid = v.AckP99Ms <= ms(ackLimit) && v.Refused == 0 && res.LateDrops == 0 && !v.BacklogGrew && !res.RuleGrew
		if stillValid && res.Valid {
			out.sustainable = r.rate
		}
		stillValid = stillValid && res.Valid
		if i == nominalRung {
			out.nominal = res
			// Peak memory under the nominal load, before the overload
			// rungs fill the queues.
			if out.peakRSSKiB, err = procPeakRSS(d.pid()); err != nil {
				pl.halt()
				return nil, err
			}
		}
		out.rungs = append(out.rungs, res)
		logf("%s rung %.0f eps: %d events, %d batches, ack p50 %.2fms p99 %.2fms, client late p99 %.2fms max %.2fms%s, overflow %.3f, late drops %d, cpu %.2fus/event, rule lags %v, sustainable %v",
			w.name, r.rate, res.Events, v.Batches, v.AckP50Ms, v.AckP99Ms, v.ClientLateP99, v.ClientLateMax,
			map[bool]string{true: " (client-bound)", false: ""}[v.ClientBound], res.Overflow, res.LateDrops, res.CPUUs, fmtLags(res.RuleLagMs), res.Valid)
		if !stillValid && i >= nominalRung {
			break // past the knee: higher rungs only pile up backlog
		}
	}
	last := rungStarts[len(rungStarts)-1].r
	out.ladderTo = last.ts[len(last.ts)-1]

	// Give the last warnings one more poll, then stop watching.
	time.Sleep(50 * time.Millisecond)
	polls, perr := pl.halt()
	if perr != nil {
		return nil, fmt.Errorf("poller: %w", perr)
	}
	final, err := getStats(c, d.base)
	if err != nil {
		return nil, err
	}
	out.ingestOK = final.Ingested-ingested0 == ackedLadder
	if !out.ingestOK {
		logf("%s: CHECK FAILED: daemon ingested %d ladder events, %d were acked", w.name, final.Ingested-ingested0, ackedLadder)
	}

	seen := firstSeen(polls)
	for wr, at := range seen {
		out.warnings = append(out.warnings, wr)
		for _, rs := range rungStarts {
			r := rs.r
			if wr.TimeMs >= r.ts[0] && wr.TimeMs <= r.ts[len(r.ts)-1] {
				out.warnLagMs = append(out.warnLagMs, ms(at.Sub(rs.start.Add(r.sched.due(wr.TimeMs)))))
			}
		}
	}
	for _, p := range polls {
		out.scrapeUs = append(out.scrapeUs, float64(p.scrape)/float64(time.Microsecond))
	}
	return out, nil
}

// ruleLags returns, for each boundary due time, the wait until the first
// poll that saw train_passes_total reach passes0+k (k counting from 1).
// Boundaries whose pass was never seen are left out.
func ruleLags(polls []poll, passes0 float64, dues []time.Time) []float64 {
	var out []float64
	for k, due := range dues {
		want := passes0 + float64(k+1)
		for _, p := range polls {
			if p.passes >= want && !p.at.Before(due) {
				out = append(out, ms(p.at.Sub(due)))
				break
			}
		}
	}
	return out
}

func fmtLags(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += strconv.FormatFloat(x, 'f', 0, 64)
	}
	return s + "]"
}

// runPredict execs cmd/predict and returns its stdout and wall time.
func runPredict(bin string, args []string) (string, time.Duration, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	b, err := cmd.Output()
	wall := time.Since(t0)
	if err != nil {
		return "", 0, fmt.Errorf("predict: %w", err)
	}
	return string(b), wall, nil
}
