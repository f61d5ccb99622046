package stream

// Durable-state wiring: snapshot capture/restore and WAL replay over
// internal/persist. The collector owns snapshots (its release position is
// the consistency cut); the sequencer owns WAL appends; recovery runs
// before any pipeline goroutine exists and is therefore plain serial
// code over the same stage logic.

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// RecoveryInfo summarizes one startup recovery pass (Stats.Recovery).
type RecoveryInfo struct {
	// SnapshotSeq is the cut position of the snapshot restored; 0 when the
	// service started from WAL alone (or from nothing).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Replayed is how many WAL events were re-run through the pipeline.
	Replayed uint64 `json:"replayed"`
	// ResumeSeq is where live sequencing continues: the sequence number
	// the next ingested event will receive.
	ResumeSeq  uint64 `json:"resume_seq"`
	DurationMs int64  `json:"duration_ms"`
	// IncrRestored reports that incremental sufficient-statistics state
	// was recovered from the snapshot, so the next retrain delta-applies
	// instead of cold-rebuilding.
	IncrRestored bool `json:"incr_restored,omitempty"`
}

// Recovery returns the startup recovery summary (zero without a StateDir).
func (s *Service) Recovery() RecoveryInfo { return s.recovery }

// recover opens the state directory, restores the newest valid snapshot,
// replays the WAL tail through the pipeline stages, and positions the WAL
// for new appends. Called from New before the goroutines start.
func (s *Service) recover() error {
	t0 := time.Now()
	store, err := persist.Open(s.cfg.StateDir, persist.Options{
		RotateBytes: s.cfg.WALRotateBytes,
		FlushEvery:  s.cfg.WALFlushEvery,
		SyncMaxWait: s.cfg.SyncMaxWait,
		SyncExec:    s.cfg.WALSyncExec,
	})
	if err != nil {
		return err
	}
	s.store = store
	// The collector-side mirror exists whenever persistence is on, so the
	// very first snapshot already carries consistent temporal state.
	s.tempMirror = preprocess.NewTemporalStage(s.cfg.Filter)

	snap, err := store.LoadSnapshot()
	if err != nil {
		return fmt.Errorf("stream: load snapshot: %w", err)
	}
	var from uint64
	if snap != nil {
		if err := s.restoreSnapshot(snap); err != nil {
			return err
		}
		from = snap.Seq
		s.recovery.SnapshotSeq = snap.Seq
	}

	// Replay trains inline (see maybeRetrain): the recovered service must
	// pass through the same states the original did, in the same order.
	s.replaying = true
	var replayed uint64
	end, err := store.Replay(from, func(seq uint64, e raslog.Event) error {
		s.replayOne(e)
		replayed++
		return nil
	})
	s.replaying = false
	if err != nil {
		return fmt.Errorf("stream: wal replay: %w", err)
	}
	if err := store.StartAppend(end); err != nil {
		return err
	}
	s.seqStart = end
	if s.loop.Start() >= 0 {
		// The sequencer's ordering floor continues at the recovered
		// watermark: everything at or before it was already emitted (the
		// emit path enforces a nondecreasing timeline, so watermark ==
		// last emitted time at any cut).
		s.seqTimeSeed = s.watermarkMs()
	}
	s.m.replayed.Add(int64(replayed))
	s.recovery.Replayed = replayed
	s.recovery.ResumeSeq = end
	if replayed > 0 {
		// The replay tail advanced the mirror past the snapshot cut, so the
		// shards must be seeded from the post-replay state: a stale seed
		// misses the tail's anchors and would keep an event the original
		// run suppressed at the temporal threshold.
		s.tempSeed = s.tempMirror.Export()
		// Re-anchor durability at the recovered position so the next crash
		// does not replay this tail again. Not done mid-replay: the WAL
		// files being iterated must not be pruned under the iterator. It
		// also covers every pass the replay ran, so none is left pending.
		s.snapPending.Store(false)
		s.writeSnapshot()
	}
	s.recovery.DurationMs = time.Since(t0).Milliseconds()
	s.m.recoverySeconds.Set(time.Since(t0).Seconds())
	return nil
}

// restoreSnapshot loads one snapshot into the service. Counter semantics:
// Ingested resumes at Sequenced + LateDropped — events that sat in the
// reorder buffer at the cut were never durable, so a recovered service has
// no buffered events and the Stats identity (ingested == sequenced +
// late_dropped + buffered) holds from the first scrape.
func (s *Service) restoreSnapshot(snap *persist.Snapshot) error {
	var err error
	if s.recovery.IncrRestored, err = s.loop.Restore(snap); err != nil {
		return fmt.Errorf("stream: snapshot rules: %w", err)
	}

	s.tempMirror.Restore(snap.Temporal)
	s.tempSeed = snap.Temporal // shards re-split this on startup
	s.spatial.Restore(snap.Spatial)

	var recs []RetrainRecord
	if len(snap.Retrains) > 0 {
		if err := json.Unmarshal(snap.Retrains, &recs); err != nil {
			return fmt.Errorf("stream: snapshot retrains: %w", err)
		}
	}
	s.mu.Lock()
	s.history = append(s.history[:0], snap.History...)
	s.retrains = recs
	s.mu.Unlock()
	s.warnMu.Lock()
	s.warnings = append(s.warnings[:0], snap.Warnings...)
	s.warnMu.Unlock()
	for _, rec := range recs {
		// Feed the training metrics back so train_* counters continue
		// across restarts instead of resetting.
		if rec.Err != "" {
			s.m.training.RecordError()
		} else {
			s.m.training.Record(rec.Retraining)
		}
	}

	s.m.watermark.Set(float64(snap.WatermarkMs))
	c := snap.Counters
	s.m.ingested.Add(c.Sequenced + c.LateDropped)
	s.m.sequenced.Add(c.Sequenced)
	s.m.lateDropped.Add(c.LateDropped)
	s.m.reorderOverflow.Add(c.Overflow)
	s.m.afterTemporal.Add(c.AfterTemporal)
	s.m.processed.Add(c.Processed)
	s.m.fatals.Add(c.Fatals)
	s.m.warningsTotal.Add(c.Warnings)
	s.next = snap.Seq
	s.afterTemp = c.AfterTemporal
	return nil
}

// replayOne runs one WAL event through the shard and collector logic.
// The temporal mirror is the decider here (during live operation it only
// records the shards' decisions — same state machine, same outcome).
func (s *Service) replayOne(e raslog.Event) {
	s.m.ingested.Inc()
	s.m.sequenced.Inc()
	o := shardOut{te: preprocess.TaggedEvent{Event: e}}
	if s.tempMirror.Observe(e) {
		s.m.afterTemporal.Inc()
		class, fatal := s.zer.Categorize(e)
		o.te.Class, o.te.Fatal, o.kept = class, fatal, true
	}
	s.collect(o)
}

// buildSnapshot captures the service state at the collector's current
// release position. Caller must be the collector goroutine (or recovery /
// shutdown, when no goroutines run): Sequenced is pinned to the cut, not
// to the live sequencer counter, which may already be ahead.
func (s *Service) buildSnapshot() (*persist.Snapshot, error) {
	snap := &persist.Snapshot{
		Seq:         s.next,
		WatermarkMs: s.watermarkMs(),
		Counters: persist.Counters{
			Sequenced: int64(s.next),
			// Late/overflow are sequencer-side; a momentary skew against
			// the cut is acceptable for these diagnostics.
			LateDropped:   s.m.lateDropped.Value(),
			Overflow:      s.m.reorderOverflow.Value(),
			AfterTemporal: s.afterTemp,
			Processed:     s.m.processed.Value(),
			Fatals:        s.m.fatals.Value(),
			Warnings:      s.m.warningsTotal.Value(),
		},
		Temporal: s.tempMirror.Export(),
		Spatial:  s.spatial.Export(),
	}
	if err := s.loop.Export(snap); err != nil {
		return nil, err
	}
	s.mu.Lock()
	snap.History = append([]preprocess.TaggedEvent(nil), s.history...)
	recs := append([]RetrainRecord(nil), s.retrains...)
	s.mu.Unlock()
	s.warnMu.Lock()
	snap.Warnings = append([]predictor.Warning(nil), s.warnings...)
	s.warnMu.Unlock()
	if len(recs) > 0 {
		raw, err := json.Marshal(recs)
		if err != nil {
			return nil, err
		}
		snap.Retrains = raw
	}
	return snap, nil
}

// writeSnapshot persists the current state. Failures are counted and
// logged into metrics, never fatal: the previous snapshot (plus a longer
// WAL tail) still recovers the service.
func (s *Service) writeSnapshot() {
	t0 := time.Now()
	snap, err := s.buildSnapshot()
	if err != nil {
		s.m.snapshotErrors.Inc()
		return
	}
	n, err := s.store.WriteSnapshot(snap)
	if err != nil {
		s.m.snapshotErrors.Inc()
		return
	}
	if n > 0 { // 0 bytes: store already abandoned (crash simulation)
		s.m.snapshots.Inc()
		s.m.snapshotBytes.Add(n)
		s.m.snapshotLatency.Since(t0)
	}
}

// crash simulates abrupt process death for tests: the store discards its
// write buffer and goes dead (every later durable write is a no-op), then
// the pipeline is torn down through the normal path. What survives on
// disk is exactly what had reached the OS at the moment of the kill.
func (s *Service) crash() {
	s.store.Abandon()
	s.Close()
}
