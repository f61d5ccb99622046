package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stream"
)

// quality is a precision/recall pair with the counts behind it.
type quality struct {
	Precision, Recall float64
	Warnings, Fatals  int
}

func score(warns []predictor.Warning, fatals []int64) quality {
	o := eval.Match(warns, fatals)
	return quality{Precision: o.Precision(), Recall: o.Recall(), Warnings: len(warns), Fatals: o.Fatals}
}

// qualityTolerance is how far the served precision and recall may sit
// from the in-process reference. The daemon retrains in the background,
// so its rule swaps land a few events later than the reference's inline
// swaps; that moves a handful of warnings, never the bulk.
const qualityTolerance = 0.10

// streamConfig mirrors cmd/serve's flag mapping for a workload.
func (w *workload) streamConfig() stream.Config {
	const week = 7 * 24 * time.Hour
	cfg := stream.Defaults()
	cfg.InitialTrain = time.Duration(w.trainWeeks * float64(week))
	cfg.TrainWindow = cfg.InitialTrain
	cfg.RetrainEvery = time.Duration(w.retrainWeeks * float64(week))
	cfg.Policy = engine.Sliding
	return cfg
}

// fatalTimes runs the paper's filter and categorizer over the accepted
// feed ranges and returns the surviving fatal timestamps in [from, to].
func fatalTimes(f *feed, accepted []span64, from, to int64) []int64 {
	inc := preprocess.Filter{Threshold: 300}.Incremental()
	zer := preprocess.NewCategorizer(preprocess.NewCatalog())
	var out []int64
	for _, r := range accepted {
		for c := r.lo; c < r.hi; c++ {
			e := f.at(c)
			if !inc.Observe(e) {
				continue
			}
			if _, fatal := zer.Categorize(e); fatal && e.Time >= from && e.Time <= to {
				out = append(out, e.Time)
			}
		}
	}
	return out
}

// inWindow keeps warnings stamped in [from, to], sorted by time.
func inWindow(warns []predictor.Warning, from, to int64) []predictor.Warning {
	var out []predictor.Warning
	for _, w := range warns {
		if w.Time >= from && w.Time <= to {
			out = append(out, w)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// fromWire converts polled warnings back to predictor warnings.
func fromWire(ws []wireWarning) []predictor.Warning {
	out := make([]predictor.Warning, len(ws))
	for i, w := range ws {
		out[i] = predictor.Warning{Time: w.TimeMs, Deadline: w.DeadlineMs, RuleID: w.Rule, Target: w.Target}
	}
	return out
}

// reference feeds the accepted events, in order, to an in-process
// stream.Service with SyncRetrain and returns every warning it emitted.
func reference(w *workload, f *feed, accepted []span64) ([]predictor.Warning, error) {
	cfg := w.streamConfig()
	cfg.SyncRetrain = true
	cfg.WarningsKeep = 1 << 20
	s, err := stream.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range accepted {
		for lo := r.lo; lo < r.hi; lo += 256 {
			if _, err := s.IngestBatch(context.Background(), f.events(lo, min(lo+256, r.hi))); err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return s.Warnings(0), nil
}

// loadLikePredict reads a raw log the way cmd/predict does: streamed
// through the incremental filter and categorizer.
func loadLikePredict(path string) ([]repro.TaggedEvent, int64, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	inc := preprocess.Filter{Threshold: 300}.Incremental()
	zer := preprocess.NewCategorizer(preprocess.NewCatalog())
	var (
		events      []repro.TaggedEvent
		first, last int64
		seen        bool
	)
	err = raslog.ScanLog(f, func(e repro.Event) error {
		if !seen {
			first, seen = e.Time, true
		}
		last = e.Time
		if inc.Observe(e) {
			class, fatal := zer.Categorize(e)
			events = append(events, repro.TaggedEvent{Event: e, Class: class, Fatal: fatal})
		}
		return nil
	})
	if err != nil || !seen {
		return nil, 0, 0, fmt.Errorf("read %s: %v", path, err)
	}
	return events, first, int((last-first)/raslog.MillisPerWeek) + 1, nil
}

// predictOptions is the repro.Options cmd/predict builds from the
// replay's flags.
func predictOptions() repro.Options {
	opts := repro.DefaultOptions()
	opts.Params = learner.Params{WindowSec: 300}
	opts.RetrainWeeks = replayRetrain
	opts.InitialTrainWeeks = replayTrain
	opts.TrainWeeks = replayTrain
	opts.Policy = repro.SlidingPolicy
	return opts
}

// overallLine extracts the "overall: ..." line cmd/predict prints.
func overallLine(out string) (string, error) {
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "overall: "); ok {
			return rest, nil
		}
	}
	return "", fmt.Errorf("predict printed no overall line")
}

// writeReplayLog writes epochs feed epochs as one raw text log.
func writeReplayLog(path string, f *feed, epochs int) (int64, error) {
	out, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	n := int64(len(f.base)) * int64(epochs)
	for lo := int64(0); lo < n; lo += 4096 {
		if _, err := bw.Write(encode(f.events(lo, min(lo+4096, n)))); err != nil {
			out.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		out.Close()
		return 0, err
	}
	return n, out.Close()
}
