package stream

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// loopShapes are the (initial, window, every) week shapes the service ≡
// engine pins sweep: short and long windows, cadences that do and do not
// divide the window.
var loopShapes = []struct{ initial, window, every int }{
	{3, 5, 2},
	{2, 3, 1},
	{4, 8, 3},
}

// engineConfig is the offline configuration equivalent to a service
// configuration whose durations are whole weeks.
func engineConfig(cfg Config) engine.Config {
	ec := engine.Defaults()
	ec.Params = cfg.Params
	ec.Policy = cfg.Policy
	ec.InitialTrainWeeks = int(cfg.InitialTrain / week)
	ec.TrainWeeks = int(cfg.TrainWindow / week)
	ec.RetrainWeeks = int(cfg.RetrainEvery / week)
	return ec
}

// assertMatchesEngine replays the batch-preprocessed trace through
// engine.Run from the service's stream start, over the whole weeks the
// service saw, and requires the closed service to have emitted the same
// warnings and run the same retrainings.
func assertMatchesEngine(t *testing.T, s *Service, events []preprocess.TaggedEvent) {
	t.Helper()
	st := s.Stats()
	weekMs := int64(raslog.MillisPerWeek)
	// Every boundary the engine flushes before start + weeks lies at or
	// before the service's watermark, so the service crossed it too.
	weeks := int((st.Watermark-st.StreamStart)/weekMs) + 1
	res, err := engine.Run(events, st.StreamStart, weeks, engineConfig(s.cfg))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Warnings(0)
	if len(got) != len(res.Warnings) {
		t.Fatalf("warning counts differ: service %d, engine %d", len(got), len(res.Warnings))
	}
	for i := range got {
		if got[i] != res.Warnings[i] {
			t.Fatalf("warning %d differs: service %+v, engine %+v", i, got[i], res.Warnings[i])
		}
	}
	recs := retrainRecords(t, s)
	if len(recs) != len(res.Retrainings) {
		t.Fatalf("retraining counts differ: service %d, engine %d", len(recs), len(res.Retrainings))
	}
	for i, r := range recs {
		e := res.Retrainings[i]
		if at := st.StreamStart + int64(e.Week)*weekMs; r.At != at ||
			r.TrainEvents != e.TrainEvents || r.Churn != e.Churn {
			t.Fatalf("retraining %d differs: service at %d %d events %+v, engine at %d %d events %+v",
				i, r.At, r.TrainEvents, r.Churn, at, e.TrainEvents, e.Churn)
		}
	}
	if len(recs) == 0 {
		t.Fatal("degenerate comparison: no retraining")
	}
}

func loopConfig(policy engine.Policy, initial, window, every int) Config {
	cfg := Defaults()
	cfg.Policy = policy
	cfg.InitialTrain = time.Duration(initial) * week
	cfg.TrainWindow = time.Duration(window) * week
	cfg.RetrainEvery = time.Duration(every) * week
	cfg.SyncRetrain = true
	cfg.WarningsKeep = 1 << 20
	return cfg
}

// TestServiceMatchesEngine pins the one dynamic loop: a SyncRetrain
// service and engine.Run fed the same in-order trace emit identical
// warnings and run identical retrainings, for every policy and schedule
// shape. Both drive engine.Loop; the pin is that the service swaps rules
// in before the first event at or after a boundary and carries only
// fatals a predictor observed, exactly as the offline replay does.
func TestServiceMatchesEngine(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 3
	}
	for seed := 1; seed <= seeds; seed++ {
		l := genLog(t, uint64(seed), 8)
		events := batchPreprocess(l, preprocess.Filter{Threshold: 300})
		for _, sh := range loopShapes {
			for _, policy := range []engine.Policy{engine.Sliding, engine.Whole, engine.Static} {
				name := fmt.Sprintf("seed=%d/%d-%d-%d/%v", seed, sh.initial, sh.window, sh.every, policy)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					s, err := New(loopConfig(policy, sh.initial, sh.window, sh.every))
					if err != nil {
						t.Fatal(err)
					}
					ingestBatches(t, s, l.Events)
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					assertMatchesEngine(t, s, events)
				})
			}
		}
	}
}

// TestServiceMatchesEngineAcrossCrash is the durable half of the pin: a
// SyncRetrain service killed mid-run, recovered from its snapshot and
// WAL, and fed the rest of the trace still matches engine.Run.
func TestServiceMatchesEngineAcrossCrash(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, policy := range []engine.Policy{engine.Sliding, engine.Whole, engine.Static} {
			t.Run(fmt.Sprintf("seed=%d/%v", seed, policy), func(t *testing.T) {
				l := genLog(t, seed, 8)
				events := batchPreprocess(l, preprocess.Filter{Threshold: 300})
				cfg := loopConfig(policy, 3, 5, 2)
				cfg.StateDir = t.TempDir()
				cfg.WALFlushEvery = 1

				first, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				kill := len(l.Events) / 2
				ingestAll(t, first, &raslog.Log{Name: l.Name, Events: l.Events[:kill]})
				first.crash()

				second, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rest := l.Events[second.Recovery().ResumeSeq:]
				ingestAll(t, second, &raslog.Log{Name: l.Name, Events: rest})
				if err := second.Close(); err != nil {
					t.Fatal(err)
				}
				if second.Recovery().Replayed == 0 && second.Recovery().SnapshotSeq == 0 {
					t.Fatal("degenerate crash: nothing recovered")
				}
				assertMatchesEngine(t, second, events)
			})
		}
	}
}
