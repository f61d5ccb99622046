package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro"
)

// reorderMs and windowMs are cmd/serve's default reorder tolerance and
// prediction window: the daemon still holds the last reorderMs of the
// feed at the end of a run, and a warning needs windowMs to resolve.
const (
	reorderMs = 60 * 1000
	windowMs  = 300 * 1000
)

// run measures one workload for one seed.
func run(e *env, w *workload, seed uint64, dur time.Duration, traced bool) (*report, error) {
	f, err := newFeed(seed, feedWeeks)
	if err != nil {
		return nil, err
	}
	var lay *layers
	if traced {
		if lay, err = tracedRun(e, w, f, dur); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	sv, err := runServing(e, w, f, dur)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true, Attempted: sv.attempted, Failed: sv.refused + sv.lostAcked}
	if !sv.ingestOK {
		rep.Correct = false
	}

	// Quality gate: served warnings against an in-order in-process
	// reference over the ladder span the daemon has fully processed.
	from, to := sv.ladderFrom, sv.ladderTo-reorderMs-windowMs
	ref, err := reference(w, f, sv.accepted)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	fat := fatalTimes(f, sv.accepted, from, to)
	got := score(inWindow(fromWire(sv.warnings), from, to), fat)
	want := score(inWindow(ref, from, to), fat)
	logf("%s: served precision %.3f recall %.3f (%d warnings), reference %.3f %.3f (%d warnings), %d fatals",
		w.name, got.Precision, got.Recall, got.Warnings, want.Precision, want.Recall, want.Warnings, got.Fatals)
	if math.Abs(got.Precision-want.Precision) > qualityTolerance || math.Abs(got.Recall-want.Recall) > qualityTolerance {
		logf("%s: CHECK FAILED: served quality is more than %.2f from the reference", w.name, qualityTolerance)
		rep.Correct = false
	}

	rp, err := replay(e, w, f, dur)
	if err != nil {
		return nil, fmt.Errorf("offline replay: %w", err)
	}
	if !rp.matches {
		rep.Correct = false
	}

	m := metrics{}
	nom := sv.nominal.Verdict
	m.set("setup_s", "s", median(sv.setupS))
	m.set("ack_p50_ms", "ms", nom.AckP50Ms)
	m.set("ack_p99_ms", "ms", nom.AckP99Ms)
	m.set("sustainable_eps", "events/s", sv.sustainable)
	m.set("cpu_us_per_event", "us", sv.nominal.CPUUs)
	m.set("peak_rss_mb", "MiB", float64(sv.peakRSSKiB)/1024)
	m.set("warn_lag_p50_ms", "ms", percentile(sv.warnLagMs, 0.50))
	m.set("warn_lag_p99_ms", "ms", percentile(sv.warnLagMs, 0.99))
	m.set("rule_lag_p50_ms", "ms", percentile(sv.ruleLagMs, 0.50))
	m.set("rule_lag_p90_ms", "ms", percentile(sv.ruleLagMs, 0.90))
	m.set("precision", "ratio", got.Precision)
	m.set("recall", "ratio", got.Recall)
	m.set("replay_lines_per_s", "lines/s", rp.linesPerS)
	logf("%s: %d ack samples at the nominal rung (p99 supported: %v), %d warn-lag samples (p99 supported: %v), %d rule-lag samples (p90 supported: %v)",
		w.name, nom.Batches, supported(nom.Batches, 0.99), len(sv.warnLagMs), supported(len(sv.warnLagMs), 0.99),
		len(sv.ruleLagMs), supported(len(sv.ruleLagMs), 0.90))
	if traced {
		lay.finish(m, sv)
	}
	if b, err := json.Marshal(m); err == nil {
		logf("%s: every figure measured: %s", w.name, b)
	}
	names := spec.EndToEnd
	if traced {
		names = spec.PerLayer
	}
	if m, err = m.pick(names); err != nil {
		return nil, err
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	rep.Metrics = m
	return rep, nil
}

// replayed is what the offline replay phase measured.
type replayed struct {
	linesPerS float64
	matches   bool
}

// replay writes the workload's feed as a raw log, runs cmd/predict over
// it several times, and checks the printed precision and recall against
// repro.Run on the same file.
func replay(e *env, w *workload, f *feed, dur time.Duration) (*replayed, error) {
	path := filepath.Join(e.work, "replay.log")
	lines, err := writeReplayLog(path, f, replayEpochs)
	if err != nil {
		return nil, err
	}
	// The serving phase's garbage is collected and returned now, so the
	// benchmark's own collector does not compete with the timed runs.
	debug.FreeOSMemory()
	args := []string{"-in", path,
		"-train", fmt.Sprint(replayTrain), "-retrain", fmt.Sprint(replayRetrain)}
	var rates []float64
	var out string
	rp := &replayed{}
	budget := time.Now().Add(dur / 3)
	for len(rates) < 3 || time.Now().Before(budget) && len(rates) < 15 {
		o, wall, err := runPredict(e.predictBin, args)
		if err != nil {
			return nil, err
		}
		out = o
		rates = append(rates, float64(lines)/wall.Seconds())
	}
	rp.linesPerS = median(rates)

	printed, err := overallLine(out)
	if err != nil {
		return nil, err
	}
	events, start, weeks, err := loadLikePredict(path)
	if err != nil {
		return nil, err
	}
	res, err := repro.Run(events, start, weeks, predictOptions())
	if err != nil {
		return nil, err
	}
	rp.matches = printed == res.Overall.String()
	if !rp.matches {
		logf("%s: CHECK FAILED: predict printed %q, repro.Run gives %q", w.name, printed, res.Overall.String())
	}
	logf("%s: replay %d lines, %.0f lines/s (median of %d, min %.0f, max %.0f), %s",
		w.name, lines, rp.linesPerS, len(rates), percentile(rates, 0), percentile(rates, 1), printed)
	return rp, nil
}
