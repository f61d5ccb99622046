package stream

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/persist"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// incrEquivConfig is a deterministic multi-retrain configuration: sync
// retraining pins the pass boundaries, so the batch oracle can replay
// every pass over the same slice.
func incrEquivConfig() Config {
	cfg := Defaults()
	cfg.InitialTrain = 3 * week
	cfg.RetrainEvery = 2 * week
	cfg.TrainWindow = 5 * week
	cfg.SyncRetrain = true
	cfg.WarningsKeep = 1 << 20
	return cfg
}

// retrainRecords asserts every completed retrain succeeded and returns
// the records.
func retrainRecords(t *testing.T, s *Service) []RetrainRecord {
	t.Helper()
	recs := s.Stats().Retrains
	for _, r := range recs {
		if r.Err != "" {
			t.Fatalf("retrain at %d failed: %s", r.At, r.Err)
		}
	}
	return recs
}

// TestStreamIncrementalEquivalence pins the service-level contract: the
// service's incremental passes learn exactly what the batch oracle
// (engine.TrainStep over the same training slice) learns — the same
// training sets, rule churn and repository at every pass, and the same
// final rules — with the first pass a full rebuild and every later one a
// delta-apply.
func TestStreamIncrementalEquivalence(t *testing.T) {
	l := genLog(t, 17, 10)
	cfg := incrEquivConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, s, l)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	events := batchPreprocess(l, cfg.Filter)
	start := s.Stats().StreamStart

	ml, repo := meta.New(), meta.NewRepository()
	recs := retrainRecords(t, s)
	if len(recs) < 3 {
		t.Fatalf("%d retrains, want >= 3", len(recs))
	}
	for i, r := range recs {
		from := max(start, r.At-cfg.TrainWindow.Milliseconds())
		var slice []preprocess.TaggedEvent
		for _, te := range events {
			if te.Time >= from && te.Time < r.At {
				slice = append(slice, te)
			}
		}
		want, err := engine.TrainStep(ml, repo, slice, cfg.Params)
		if err != nil {
			t.Fatal(err)
		}
		if r.TrainEvents != want.TrainEvents || r.Churn != want.Churn || r.RepoSize != want.RepoSize {
			t.Errorf("retrain %d diverges from batch: %+v vs %+v", i, r.Retraining, want)
		}
		if r.Incr == nil {
			t.Fatalf("retrain %d missing IncrInfo", i)
		}
		if i == 0 && !r.Incr.Rebuild {
			t.Error("first retrain must be a full rebuild")
		}
		if i > 0 && r.Incr.Rebuild {
			t.Errorf("retrain %d fell back to a rebuild: %s", i, r.Incr.Reason)
		}
	}
	if !reflect.DeepEqual(s.Rules(), repo.Rules()) {
		t.Errorf("rule sets diverge: %d incremental vs %d batch", len(s.Rules()), len(repo.Rules()))
	}
}

// TestRecoveryRestoresIncrementalState kills a service after its first
// retrain (and the snapshot that follows it) and restarts over the same
// state directory: the incremental sufficient statistics must come back
// from the snapshot, and the first retrain of the recovered run must be
// a delta-apply, never a cold rebuild.
func TestRecoveryRestoresIncrementalState(t *testing.T) {
	l := genLog(t, 13, 8)
	cfg := durableConfig(t.TempDir())

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Feed past the first retrain (InitialTrain = 3w) with enough tail
	// that the collector reaches the post-retrain snapshot point.
	split := l.Start() + 4*week.Milliseconds()
	ingestAll(t, s1, &raslog.Log{Name: l.Name, Events: l.Window(l.Start(), split)})
	// The kill must land after the first retrain AND the snapshot the
	// collector writes at its next release point — crash() abandons the
	// store, so anything still pending is lost (that's the point).
	waitFor(t, 30*time.Second, func() bool {
		return len(s1.Stats().Retrains) >= 1 && s1.m.snapshots.Value() >= 1
	})
	s1.crash()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Recovery().IncrRestored {
		t.Fatal("snapshot recovery did not restore incremental state")
	}
	ingestAll(t, s2, &raslog.Log{Name: l.Name, Events: l.Window(split, l.End()+1)})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	recs := retrainRecords(t, s2)
	if len(recs) < 2 {
		t.Fatalf("recovered run completed %d retrains; want >= 2", len(recs))
	}
	// Record 0 predates the kill (restored with the snapshot): it was the
	// cold build. Every retrain the recovered process itself ran must be
	// a delta-apply on the restored statistics.
	if !recs[0].Incr.Rebuild {
		t.Error("pre-kill first retrain should have been the cold rebuild")
	}
	for _, r := range recs[1:] {
		if r.Incr == nil {
			t.Fatalf("retrain at %d missing IncrInfo", r.At)
		}
		if r.Incr.Rebuild {
			t.Errorf("retrain at %d after recovery cold-rebuilt: %s", r.At, r.Incr.Reason)
		}
	}
}

// TestRecoveryWithoutIncrState pins the fallback: a snapshot with no
// incremental state (as written before the statistics were persisted)
// recovers fine, and the recovered service simply cold-rebuilds on its
// next retrain — recovery never depends on the field being present.
func TestRecoveryWithoutIncrState(t *testing.T) {
	l := genLog(t, 13, 8)
	cfg := durableConfig(t.TempDir())

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	split := l.Start() + 4*week.Milliseconds()
	ingestAll(t, s1, &raslog.Log{Name: l.Name, Events: l.Window(l.Start(), split)})
	waitFor(t, 30*time.Second, func() bool {
		return len(s1.Stats().Retrains) >= 1 && s1.m.snapshots.Value() >= 1
	})
	s1.crash()

	// Rewrite the newest snapshot without its incremental state.
	store, err := persist.Open(cfg.StateDir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.LoadSnapshot()
	if err != nil || snap == nil || len(snap.Incr) == 0 {
		t.Fatalf("no snapshot with incremental state to strip (err %v)", err)
	}
	snap.Incr = nil
	if _, err := store.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Recovery().IncrRestored {
		t.Error("restored incremental state from a snapshot without it")
	}
	ingestAll(t, s2, &raslog.Log{Name: l.Name, Events: l.Window(split, l.End()+1)})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	recs := retrainRecords(t, s2)
	own := recs[1:] // record 0 predates the kill
	if len(own) == 0 {
		t.Fatal("recovered service never retrained")
	}
	if !own[0].Incr.Rebuild {
		t.Error("first retrain without restored state must cold-rebuild")
	}
	for _, r := range own[1:] {
		if r.Incr.Rebuild {
			t.Errorf("retrain at %d cold-rebuilt: %s", r.At, r.Incr.Reason)
		}
	}
}
