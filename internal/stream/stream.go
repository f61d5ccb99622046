// Package stream is the online half of the framework: a long-running
// ingestion and prediction service wrapping the same machinery the batch
// engine replays offline (paper §4.3 — "an event-driven approach is well
// suited for online failure prediction").
//
// Events flow through a concurrent pipeline:
//
//		Ingest ─→ sequencer ─→ per-location shards ─→ collector ─→ predictor
//		           (reorder       (temporal filter       (seq-ordered merge,
//		            buffer,        + categorizer,         spatial filter,
//		            late drop)     parallel)              observe, retrain)
//
//	  - The sequencer tolerates out-of-order arrivals with a bounded
//	    reorder buffer keyed on timestamp: events are released once the
//	    high-water mark has advanced past them by ReorderWindow (or the
//	    buffer overflows its limit). Events older than the release point
//	    are counted and dropped, preserving the sorted-stream invariant
//	    every downstream stage requires.
//	  - Shards run the streaming temporal filter (state is keyed by
//	    location, and a location is pinned to one shard) and the
//	    categorizer in parallel. Every event is forwarded — kept or not —
//	    carrying its sequence number, so the collector can restore the
//	    exact global order.
//	  - The single collector goroutine reassembles sequence order, applies
//	    the (globally-stateful) spatial filter, feeds the predictor, and
//	    accumulates history for retraining. Equivalence with the batch
//	    preprocessor on in-order input is pinned by TestPipelineMatchesBatch.
//	  - Retraining runs in the background on a snapshot of the history
//	    window (policies Static / Sliding / Whole, as in the engine) and
//	    swaps the refreshed predictor in via atomic.Pointer — the hot
//	    observe path takes no lock and never waits on a retrain.
//
// All queues are bounded; a full pipeline exerts backpressure on Ingest
// rather than buffering without limit. Close drains everything in order.
package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/meta"
	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// ErrClosed is returned by Ingest after Close.
var ErrClosed = errors.New("stream: service closed")

// ErrSaturated is returned by Ingest/IngestBatch when the pipeline stayed
// full for the whole admission wait (Config.AdmitWait). The event was NOT
// accepted; the caller may retry. The HTTP layer maps it to 429 with a
// Retry-After header. Errors arrive wrapped — test with errors.Is.
var ErrSaturated = errors.New("stream: pipeline saturated")

// errCommit marks a batch that was admitted and sequenced but whose WAL
// commit failed or could not be confirmed (write error, fsync error,
// store torn down mid-coalesce). The events were NOT acknowledged as
// durable; the HTTP layer maps it to 503 and the client re-sends under
// the resume contract — the at-least-once side of ack-implies-durable.
var errCommit = errors.New("stream: durable commit failed")

// ErrStandby is returned by Ingest/IngestBatch/TrainNow on a standby
// service (Config.Standby): a follower takes its events from the leader's
// WAL, never from clients — accepting direct ingest would fork the
// replicated stream. The HTTP layer maps it to 503 (the same resume
// contract as a restarting daemon: clients back off and retry, and after
// promotion the retry lands). Errors arrive wrapped — test with errors.Is.
var ErrStandby = errors.New("stream: standby replica (not accepting ingest; promote first)")

// Config parameterizes a Service. Durations are measured in *stream time*
// (event timestamps), so replayed or time-compressed feeds retrain on
// their own timeline, exactly like the offline engine.
type Config struct {
	// Filter is the preprocessing filter (threshold + tupling mode).
	Filter preprocess.Filter
	// Params carries the prediction window W_P.
	Params learner.Params
	// Policy selects the training-set evolution (engine.Static /
	// engine.Sliding / engine.Whole).
	Policy engine.Policy
	// InitialTrain is how much stream time must accumulate before the
	// first training (paper default 26 weeks).
	InitialTrain time.Duration
	// TrainWindow is the sliding training-set length (Policy == Sliding).
	TrainWindow time.Duration
	// RetrainEvery is W_R, the retraining cadence.
	RetrainEvery time.Duration
	// Meta supplies the learners and reviser; nil means meta.New().
	Meta *meta.MetaLearner
	// Parallelism bounds background-training concurrency (base learners,
	// Apriori counting, reviser scoring): 0 means GOMAXPROCS, 1 forces
	// the serial pipeline. The trained rule set is identical either way.
	Parallelism int
	// RetrainLimiter bounds concurrent *background* training passes
	// across every service sharing it (fleet mode: thousands of tenants
	// must not rebuild rules simultaneously). Nil means unlimited.
	// Inline passes — SyncRetrain, WAL replay, TrainNow — bypass it.
	RetrainLimiter *RetrainLimiter

	// Shards is the number of parallel temporal-filter/categorizer
	// workers. Zero means 4.
	Shards int
	// QueueLen is the per-channel buffer length. Zero means 1024.
	QueueLen int
	// ReorderWindow is the out-of-order tolerance in stream time: an
	// event is released from the reorder buffer once the newest seen
	// timestamp exceeds it by this much. Zero means 60s.
	ReorderWindow time.Duration
	// ReorderLimit caps the reorder buffer; overflow releases the oldest
	// event early. Zero means 4096.
	ReorderLimit int
	// WarningsKeep is how many recent warnings GET /warnings can serve.
	// Zero means 256.
	WarningsKeep int
	// AdmitWait bounds how long Ingest/IngestBatch block against a
	// saturated pipeline before giving up with ErrSaturated. Backpressure
	// still applies — callers wait up to this long for a queue slot — but
	// a wedged or overdriven service sheds load in bounded time instead of
	// holding every caller (and its request body) hostage. Zero means 30s,
	// a library-level backstop; cmd/serve defaults its -admit-wait flag
	// much lower.
	AdmitWait time.Duration

	// StateDir enables durable state — snapshots plus a write-ahead log
	// rooted at this directory (see internal/persist and DESIGN.md §9).
	// On New, the newest valid snapshot is loaded and the WAL tail is
	// replayed through the pipeline before intake starts; empty disables
	// persistence entirely.
	StateDir string
	// Standby starts the service as a hot-standby replica (DESIGN.md §14):
	// recovery runs as usual, but the pipeline goroutines do not start and
	// Ingest/IngestBatch refuse with ErrStandby. Events arrive instead via
	// a Follower tailing a leader's WAL segments, replayed serially through
	// the recovery path, so the replica's state tracks the leader's exactly.
	// Promote() ends standby: it seeds the sequencer at the replicated
	// position and starts the live pipeline. Requires StateDir (the replica
	// keeps its own durable WAL so a promoted leader can itself recover).
	Standby bool
	// WALFlushEvery pushes the WAL write buffer to the OS every this many
	// records (persist.Options.FlushEvery). Zero means 64; 1 makes every
	// sequenced event durable against process death at an obvious
	// throughput cost.
	WALFlushEvery int
	// WALRotateBytes is the WAL segment rotation size. Zero means 8 MiB.
	WALRotateBytes int64
	// SyncMaxWait is the WAL commit pipeline's coalescing delay
	// (persist.Options.SyncMaxWait): how long the background syncer may
	// linger after a batch lands so more batches join the shared fsync.
	// Zero syncs as soon as the disk is free; coalescing still happens
	// whenever an fsync is already in flight.
	SyncMaxWait time.Duration
	// WALSyncExec, when set, bounds this service's background WAL fsyncs
	// under an executor shared with other services (fleet mode: many
	// tenant stores on one disk). Nil runs fsyncs directly.
	WALSyncExec *persist.SyncExecutor
	// SyncRetrain runs (re)training inline on the collector goroutine
	// instead of in the background. Ingestion stalls for the duration of
	// a pass, but the predictor swap then lands at a deterministic stream
	// position, where engine.Run swaps — which is what makes a run match
	// the offline engine, and a crashed-and-recovered run byte-identical
	// to an uninterrupted one (WAL replay always trains inline, so only a
	// service that also *ran* synchronously can be reproduced exactly; an
	// async service recovers to an equivalent state whose swap points may
	// differ by a few events).
	SyncRetrain bool
}

// Defaults returns the paper's parameters: 300 s filter threshold,
// W_P = 300 s, dynamic retraining every 4 weeks on a sliding six-month
// window.
func Defaults() Config {
	const week = 7 * 24 * time.Hour
	return Config{
		Filter:       preprocess.Filter{Threshold: 300},
		Params:       learner.Params{WindowSec: 300},
		Policy:       engine.Sliding,
		InitialTrain: 26 * week,
		TrainWindow:  26 * week,
		RetrainEvery: 4 * week,
	}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = 4
	}
	if out.QueueLen <= 0 {
		out.QueueLen = 1024
	}
	if out.ReorderWindow <= 0 {
		out.ReorderWindow = time.Minute
	}
	if out.ReorderLimit <= 0 {
		out.ReorderLimit = 4096
	}
	if out.WarningsKeep <= 0 {
		out.WarningsKeep = 256
	}
	if out.AdmitWait <= 0 {
		out.AdmitWait = 30 * time.Second
	}
	return out
}

// seqEvent travels sequencer → shard.
type seqEvent struct {
	seq uint64
	e   raslog.Event
}

// shardOut travels shard → collector. Every sequenced event arrives here,
// kept or not, so the collector can release in exact sequence order.
type shardOut struct {
	seq  uint64
	te   preprocess.TaggedEvent
	kept bool
}

// RetrainRecord is one background (re)training, for /stats and tests.
type RetrainRecord struct {
	// At is the stream-time boundary (ms) the training set ends at.
	At int64 `json:"at_ms"`
	engine.Retraining
	// Err is non-empty when the pass failed (the previous rule set stays
	// live).
	Err string `json:"err,omitempty"`
}

// Service is the streaming prediction service. Create with New, feed with
// Ingest (safe for concurrent use), read Warnings/Stats at any time, and
// Close to drain.
type Service struct {
	cfg Config
	zer *preprocess.Categorizer
	// loop is the dynamic loop shared with the offline engine: schedule,
	// incremental training pass, predictor builder and swap. The service
	// only decides where a pass runs (inline, background, or behind the
	// RetrainLimiter); the retraining flag keeps passes from overlapping.
	loop *engine.Loop

	seqCh     chan ingestMsg
	shardChs  []chan seqEvent
	collectCh chan shardOut

	// Durable-state plumbing; all nil/zero when StateDir is empty.
	// spatial and next live on the Service (not as collector locals) so
	// snapshots and WAL replay share the collector's exact state.
	store       *persist.Store
	spatial     *preprocess.SpatialStage
	tempMirror  *preprocess.TemporalStage // collector-side mirror of the shard stages
	tempSeed    []preprocess.TemporalEntry
	next        uint64 // collector position: next sequence to release
	afterTemp   int64  // cut-consistent tally of temporal-filter survivors
	seqStart    uint64 // sequencer resume position after recovery
	seqTimeSeed int64  // sequencer lastEmitted/maxSeen seed after recovery
	replaying   bool
	snapPending atomic.Bool
	recovery    RecoveryInfo
	finalSnap   sync.Once

	closeMu    sync.RWMutex
	closed     bool
	pipelineOn bool          // goroutines running (false while standby)
	done       chan struct{} // collector finished

	// standby mirrors Config.Standby until promotion flips it; transitions
	// happen under closeMu.Lock (promote) so intake checks under RLock are
	// exact, and reads elsewhere (Stats) take the atomic view. promoteHook
	// lets a Follower interpose its orderly shutdown in front of the state
	// flip when POST /promote arrives through the service mux.
	standby     atomic.Bool
	promoteHook atomic.Pointer[func() error]
	// replNext / leaderSeq are the follower loop's published positions
	// (s.next itself is goroutine-private), read racily by Stats.
	replNext  uint64
	leaderSeq uint64
	// backfill is the bounded-memory historical intake (backfill.go); at
	// most one runs at a time.
	backfill backfillState

	retraining atomic.Bool
	retrainWG  sync.WaitGroup

	// m holds every counter, gauge and histogram (see metrics.go).
	// Stats() and GET /metrics are two views over these instruments.
	m *metrics

	mu       sync.Mutex
	history  []preprocess.TaggedEvent
	retrains []RetrainRecord

	// The warnings ring lives under its own mutex, NOT under mu: readers
	// (GET /warnings, the fleet firehose) copy the ring here and format it
	// outside any lock, so a slow reader can never hold the service mutex
	// against the collector's hot path. The collector takes warnMu only on
	// the rare event that actually emits warnings.
	warnMu   sync.Mutex
	warnings []predictor.Warning // ring of the last WarningsKeep
}

// watermarkMs is the stream time (ms) of the newest collected event.
func (s *Service) watermarkMs() int64 { return int64(s.m.watermark.Value()) }

// New validates cfg, starts the pipeline goroutines, and returns the
// running service. With Config.Standby the goroutines are deferred until
// Promote: the service recovers its durable state and then waits to be
// fed by a Follower.
func New(cfg Config) (*Service, error) {
	full := cfg.withDefaults()
	if full.Standby && full.StateDir == "" {
		return nil, errors.New("stream: Standby requires StateDir")
	}
	s := &Service{
		cfg:       full,
		zer:       preprocess.NewCategorizer(preprocess.NewCatalog()),
		spatial:   preprocess.NewSpatialStage(full.Filter),
		seqCh:     make(chan ingestMsg, full.QueueLen),
		shardChs:  make([]chan seqEvent, full.Shards),
		collectCh: make(chan shardOut, full.QueueLen),
		done:      make(chan struct{}),
	}
	s.seqTimeSeed = -1 << 62
	for i := range s.shardChs {
		s.shardChs[i] = make(chan seqEvent, full.QueueLen)
	}
	s.m = newMetrics(s) // after the channels: queue gauges read them
	var err error
	if s.loop, err = engine.NewLoop(engine.LoopConfig{
		Policy:      full.Policy,
		Initial:     full.InitialTrain.Milliseconds(),
		Window:      full.TrainWindow.Milliseconds(),
		Every:       full.RetrainEvery.Milliseconds(),
		Params:      full.Params,
		Meta:        full.Meta,
		Parallelism: full.Parallelism,
		Metrics:     s.m.training,
	}); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}

	if full.StateDir != "" {
		// Recovery runs before any pipeline goroutine exists: the snapshot
		// is restored and the WAL tail replayed serially through the same
		// stage logic, then intake resumes where the durable log ends.
		if err := s.recover(); err != nil {
			return nil, err
		}
	}

	if full.Standby {
		// A standby stays in the recovery posture: replaying remains set so
		// replicated retrains run inline at deterministic stream positions
		// (exactly like WAL replay), and no pipeline goroutine exists until
		// promotion. The Follower feeds applyReplicated serially.
		s.standby.Store(true)
		s.replaying = true
		return s, nil
	}
	s.closeMu.Lock()
	s.startPipelineLocked()
	s.closeMu.Unlock()
	return s, nil
}

// startPipelineLocked launches the sequencer, shard, and collector
// goroutines. Caller holds closeMu.Lock; the sequencer reads seqStart and
// seqTimeSeed, so both must be final before the call.
func (s *Service) startPipelineLocked() {
	s.pipelineOn = true
	go s.sequencer()
	var shardWG sync.WaitGroup
	for i := range s.shardChs {
		shardWG.Add(1)
		go s.shard(i, &shardWG)
	}
	go func() {
		shardWG.Wait()
		close(s.collectCh)
	}()
	go s.collector()
}

// Ingest feeds one raw event. It blocks while the pipeline is saturated
// (backpressure) for at most Config.AdmitWait, then fails with
// ErrSaturated (or earlier with ctx's error); the event is accepted iff
// the return is nil. Events may arrive modestly out of order (within
// ReorderWindow); later ones are dropped and counted.
func (s *Service) Ingest(ctx context.Context, e raslog.Event) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	if s.standby.Load() {
		return ErrStandby
	}
	if err := s.admit(ctx, ingestMsg{e: e}); err != nil {
		return err
	}
	s.m.ingested.Inc()
	return nil
}

// admit hands msg to the sequencer. The fast path is a non-blocking send
// — no timer, no allocation, so an unsaturated pipeline keeps the
// zero-alloc budget. Only when the queue is full does it arm a timer and
// wait up to AdmitWait, recording the stall either way: admission waits
// feed the backpressure histogram, timeouts the rejected counter (whose
// value therefore equals the number of 429s the HTTP layer produced).
// Caller holds closeMu.RLock, so seqCh cannot close under the send.
func (s *Service) admit(ctx context.Context, msg ingestMsg) error {
	select {
	case s.seqCh <- msg:
		return nil
	default:
	}
	t0 := time.Now()
	defer s.m.backpressure.Since(t0)
	timer := time.NewTimer(s.cfg.AdmitWait)
	defer timer.Stop()
	select {
	case s.seqCh <- msg:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		s.m.rejected.Inc()
		return fmt.Errorf("stream: no pipeline slot within %v: %w", s.cfg.AdmitWait, ErrSaturated)
	}
}

// IngestBatch feeds events as one unit: the batch enters the reorder
// buffer together, and everything it releases commits to the WAL as a
// single frame whose fsync is shared with every other batch in flight
// (cross-request group commit, DESIGN.md §15). With durable state on,
// the call returns only after that covering fsync lands — a nil error
// is an ack-implies-durable receipt for the batch's released events;
// events the reorder buffer retained (inside the tolerance window) stay
// in the accepted-but-buffered class exactly as before. The service
// takes ownership of the slice; the caller must not reuse it. Returns
// how many events were accepted — the whole batch, or zero when the
// service is closed, ctx expires, the pipeline stays saturated past
// Config.AdmitWait (ErrSaturated), or the commit could not be confirmed
// (errCommit → HTTP 503; the client re-sends, at-least-once).
func (s *Service) IngestBatch(ctx context.Context, events []raslog.Event) (int, error) {
	if len(events) == 0 {
		return 0, nil
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.standby.Load() {
		return 0, ErrStandby
	}
	msg := ingestMsg{batch: events}
	if s.store != nil {
		// One small allocation per batch (not per event): the ack channel
		// the sequencer hands the commit ticket back on. The store-less
		// path stays allocation-free (BenchmarkIngestBatch).
		msg.ack = make(chan persist.Ticket, 1)
	}
	if err := s.admit(ctx, msg); err != nil {
		return 0, err
	}
	s.m.ingested.Add(int64(len(events)))
	if msg.ack == nil {
		return len(events), nil
	}
	// The batch is admitted and will be sequenced; we only decide what to
	// tell the caller. Sequencing of later batches overlaps this wait —
	// the pipeline, not the request, owns the fsync.
	var t persist.Ticket
	select {
	case t = <-msg.ack:
	case <-ctx.Done():
		return 0, fmt.Errorf("stream: batch admitted but commit unconfirmed: %w", ctx.Err())
	}
	if err := t.Wait(ctx); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return 0, fmt.Errorf("stream: batch admitted but commit unconfirmed: %w", err)
		}
		return 0, fmt.Errorf("%w: %v", errCommit, err)
	}
	return len(events), nil
}

// Close stops intake, drains every stage in order, waits for in-flight
// retraining, and returns. Safe to call more than once.
func (s *Service) Close() error {
	s.closeMu.Lock()
	already := s.closed
	pipelineOn := s.pipelineOn
	if !already {
		s.closed = true
		close(s.seqCh)
	}
	s.closeMu.Unlock()
	if pipelineOn {
		<-s.done
	}
	s.retrainWG.Wait()
	var err error
	if s.store != nil {
		// Graceful shutdown snapshots the fully-drained state, so the next
		// start replays no WAL at all. After crash() the store is dead and
		// both calls are no-ops — that is the point of the simulation.
		s.finalSnap.Do(func() {
			s.writeSnapshot()
			err = s.store.Close()
		})
	}
	return err
}

// ---------------------------------------------------------------------------
// Sequencer: bounded reorder buffer keyed on timestamp.
// ---------------------------------------------------------------------------

// ingestMsg travels Ingest/IngestBatch → sequencer. Exactly one of the
// event fields is meaningful: batch == nil is the single-event form. A
// batch is sequenced as one unit, so everything it releases shares one
// WAL group commit. ack, when non-nil (durable batch ingest), receives
// exactly one commit ticket once the batch has been sequenced: the
// ticket covers the events the batch released from the reorder buffer,
// and IngestBatch holds the caller's 200 until it resolves.
type ingestMsg struct {
	e     raslog.Event
	batch []raslog.Event
	ack   chan persist.Ticket
}

type heapEntry struct {
	e       raslog.Event
	arrival uint64 // tie-break so equal timestamps keep arrival order
}

// eventHeap is a concrete-typed binary min-heap ordered by (time,
// arrival). container/heap's interface{} methods box every entry on
// Push and Pop — two heap allocations per event on the hottest path in
// the service; with the entry type fixed, push and pop touch only the
// reused backing array.
type eventHeap struct {
	buf []heapEntry
}

func (h *eventHeap) len() int { return len(h.buf) }

func (h *eventHeap) less(i, j int) bool {
	if h.buf[i].e.Time != h.buf[j].e.Time {
		return h.buf[i].e.Time < h.buf[j].e.Time
	}
	return h.buf[i].arrival < h.buf[j].arrival
}

func (h *eventHeap) push(ent heapEntry) {
	h.buf = append(h.buf, ent)
	i := len(h.buf) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.buf[i], h.buf[parent] = h.buf[parent], h.buf[i]
		i = parent
	}
}

func (h *eventHeap) pop() heapEntry {
	top := h.buf[0]
	last := len(h.buf) - 1
	h.buf[0] = h.buf[last]
	h.buf[last] = heapEntry{} // drop the string references
	h.buf = h.buf[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.less(l, small) {
			small = l
		}
		if r < last && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.buf[i], h.buf[small] = h.buf[small], h.buf[i]
		i = small
	}
	return top
}

func (s *Service) sequencer() {
	var (
		buf     eventHeap
		arrival uint64
		// After recovery, sequence numbers continue where the durable WAL
		// ends and the time floor continues at the recovered watermark, so
		// re-fed events are neither double-logged nor mistaken for late.
		seq         = s.seqStart
		maxSeen     = s.seqTimeSeed
		lastEmitted = s.seqTimeSeed
		release     []seqEvent     // this round's releases, committed together
		walBatch    []raslog.Event // scratch for the group-commit frame
	)
	tolMs := s.cfg.ReorderWindow.Milliseconds()

	// emit stages one event released from the buffer. overflow marks a
	// release forced by the buffer cap alone (not yet past the tolerance):
	// such an event increments exactly one counter — lateDropped when it
	// is behind the emitted floor, reorderOverflow otherwise.
	emit := func(e raslog.Event, overflow bool) {
		if e.Time < lastEmitted {
			s.m.lateDropped.Inc()
			return
		}
		if overflow {
			s.m.reorderOverflow.Inc()
		}
		lastEmitted = e.Time
		release = append(release, seqEvent{seq: seq, e: e})
		seq++
	}

	// flush commits the staged releases — a burst takes one WAL frame no
	// matter its size (group commit), a burst of one from the non-acked
	// single-event path takes the buffered single-record path — then
	// forwards them to the shards. The frame is appended (enqueued in the
	// commit pipeline) before anything is forwarded: WAL-before-processing
	// holds as before. The fsync itself is asynchronous; the sequencer
	// hands the commit ticket back through ack (when the msg wants a
	// durable receipt) and moves straight on to the next batch, so
	// parse/sequence of the next request overlaps the in-flight fsync.
	// Forwarding ahead of the fsync is safe: a snapshot syncs the WAL
	// before it is written, so no durable state can ever claim a sequence
	// the log might still lose.
	flush := func(ack chan persist.Ticket) {
		if len(release) == 0 {
			if ack != nil {
				ack <- persist.Ticket{} // nothing released → nothing to await
			}
			return
		}
		var t persist.Ticket
		if s.store != nil {
			var n int
			var err error
			if len(release) == 1 && ack == nil {
				n, err = s.store.Append(release[0].seq, release[0].e)
			} else {
				walBatch = walBatch[:0]
				for i := range release {
					walBatch = append(walBatch, release[i].e)
				}
				n, t, err = s.store.AppendBatch(release[0].seq, walBatch)
			}
			if err != nil {
				s.m.walErrors.Inc()
				t = persist.FailedTicket(err)
			} else {
				s.m.walBytes.Add(int64(n))
			}
		}
		if ack != nil {
			ack <- t // buffered: never blocks the sequencer
		}
		for i := range release {
			s.m.sequenced.Inc()
			s.shardChs[shardOf(release[i].e.Location, len(s.shardChs))] <- release[i]
			release[i] = seqEvent{} // drop the string references
		}
		release = release[:0]
	}

	push := func(e raslog.Event) {
		if e.Time > maxSeen {
			maxSeen = e.Time
		}
		buf.push(heapEntry{e: e, arrival: arrival})
		arrival++
	}

	for msg := range s.seqCh {
		t0 := time.Now()
		if msg.batch != nil {
			for _, e := range msg.batch {
				push(e)
			}
		} else {
			push(msg.e)
		}
		for buf.len() > 0 && (buf.len() > s.cfg.ReorderLimit || buf.buf[0].e.Time <= maxSeen-tolMs) {
			overflow := buf.len() > s.cfg.ReorderLimit && buf.buf[0].e.Time > maxSeen-tolMs
			emit(buf.pop().e, overflow)
		}
		flush(msg.ack)
		s.m.reorderDepth.Set(float64(buf.len()))
		s.m.seqLatency.Since(t0)
	}
	// Intake closed: flush the buffer in order.
	for buf.len() > 0 {
		emit(buf.pop().e, false)
	}
	flush(nil)
	s.m.reorderDepth.Set(0)
	for _, ch := range s.shardChs {
		close(ch)
	}
}

// shardOf pins a location to a shard with inline FNV-1a. The hash/fnv
// object costs an allocation per event (plus the []byte(location)
// conversion); the loop below computes the identical hash, so shard
// assignment — and the re-split of snapshotted temporal state across
// shards — is unchanged.
func shardOf(location string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(location); i++ {
		h = (h ^ uint32(location[i])) * prime32
	}
	return int(h % uint32(n))
}

// ---------------------------------------------------------------------------
// Shards: parallel temporal filtering + categorization.
// ---------------------------------------------------------------------------

func (s *Service) shard(i int, wg *sync.WaitGroup) {
	defer wg.Done()
	temporal := preprocess.NewTemporalStage(s.cfg.Filter)
	if len(s.tempSeed) > 0 {
		// Recovery: re-split the snapshot's global temporal state across
		// the shards (a location is pinned to one shard, so each key has
		// exactly one home).
		rows := make([]preprocess.TemporalEntry, 0, len(s.tempSeed)/len(s.shardChs)+1)
		for _, row := range s.tempSeed {
			if shardOf(row.Location, len(s.shardChs)) == i {
				rows = append(rows, row)
			}
		}
		temporal.Restore(rows)
	}
	for se := range s.shardChs[i] {
		t0 := time.Now()
		out := shardOut{seq: se.seq}
		if temporal.Observe(se.e) {
			s.m.afterTemporal.Inc()
			class, fatal := s.zer.Categorize(se.e)
			out.te = preprocess.TaggedEvent{Event: se.e, Class: class, Fatal: fatal}
			out.kept = true
		} else {
			out.te.Event = se.e // carry the timestamp for the watermark
		}
		s.collectCh <- out
		s.m.shardLatency.Since(t0)
	}
}

// ---------------------------------------------------------------------------
// Collector: ordered merge, spatial filter, predictor, retrain trigger.
// ---------------------------------------------------------------------------

// pendingRing holds out-of-order shard outputs awaiting in-sequence
// release, slotted by sequence number into a power-of-two ring. The
// live window (newest seq − release position) is bounded by the
// in-flight capacity of the shard and collector channels, so the ring
// grows to a steady size once and then replaces the old map's per-event
// hashing, bucket allocation and tombstones with two array writes.
type pendingRing struct {
	buf []shardOut
	set []bool
}

// put stores o, growing the ring while o.seq would collide with a slot
// still inside the [next, next+len) window.
func (r *pendingRing) put(next uint64, o shardOut) {
	if len(r.buf) == 0 {
		r.buf = make([]shardOut, 64)
		r.set = make([]bool, 64)
	}
	for o.seq-next >= uint64(len(r.buf)) {
		r.grow()
	}
	i := o.seq & uint64(len(r.buf)-1)
	r.buf[i], r.set[i] = o, true
}

func (r *pendingRing) grow() {
	buf := make([]shardOut, 2*len(r.buf))
	set := make([]bool, 2*len(r.buf))
	for i, ok := range r.set {
		if ok {
			j := r.buf[i].seq & uint64(len(buf)-1)
			buf[j], set[j] = r.buf[i], true
		}
	}
	r.buf, r.set = buf, set
}

// take removes and returns the entry for seq, if present.
func (r *pendingRing) take(seq uint64) (shardOut, bool) {
	if len(r.buf) == 0 {
		return shardOut{}, false
	}
	i := seq & uint64(len(r.buf)-1)
	if !r.set[i] {
		return shardOut{}, false
	}
	o := r.buf[i]
	r.buf[i], r.set[i] = shardOut{}, false // drop the string references
	return o, true
}

func (s *Service) collector() {
	defer close(s.done)
	var pending pendingRing
	for out := range s.collectCh {
		pending.put(s.next, out)
		for {
			o, ok := pending.take(s.next)
			if !ok {
				break
			}
			t0 := time.Now()
			if s.tempMirror != nil {
				// Track the shards' temporal decisions so a snapshot can carry
				// one consistent global filter state (see preprocess.Record).
				s.tempMirror.Record(o.te.Event, o.kept)
			}
			s.collect(o)
			s.m.collectLatency.Since(t0)
		}
	}
}

// collect is the per-event body of the collector and of WAL replay: the
// dynamic loop's step. The stream clock advances and any pass it makes
// due runs (or is dispatched) first, so new rules are live before the
// first event at or after their boundary is observed; then the spatial
// filter and the predictor see the event.
func (s *Service) collect(o shardOut) {
	s.next++
	s.loop.Begin(o.te.Time)
	if o.te.Time > s.watermarkMs() {
		s.m.watermark.Set(float64(o.te.Time))
	}
	s.maybeRetrain()
	if o.kept {
		s.afterTemp++
	}
	if o.kept && s.spatial.Observe(o.te.Event) {
		s.process(o.te)
	}
	if s.store != nil && !s.replaying && s.snapPending.CompareAndSwap(true, false) {
		// A training pass completed (inline or in the background):
		// snapshot on the collector, where the cut at s.next is exact.
		s.writeSnapshot()
	}
}

// process feeds one fully-filtered event to the history and the live
// predictor. Runs only on the collector goroutine; the predictor pointer
// is loaded once per event and never locked.
func (s *Service) process(te preprocess.TaggedEvent) {
	s.m.processed.Inc()
	warns := s.loop.Observe(te)
	if te.Fatal {
		s.m.fatals.Inc()
	}

	s.mu.Lock()
	s.history = append(s.history, te)
	s.trimHistoryLocked()
	s.mu.Unlock()
	if len(warns) > 0 {
		s.m.warningsTotal.Add(int64(len(warns)))
		s.warnMu.Lock()
		s.warnings = append(s.warnings, warns...)
		if over := len(s.warnings) - s.cfg.WarningsKeep; over > 0 {
			s.warnings = append(s.warnings[:0], s.warnings[over:]...)
		}
		s.warnMu.Unlock()
	}
}

// trimHistoryLocked bounds the history to what future retrainings can
// use: nothing after a Static service has trained, the sliding window
// (plus the untrained remainder) otherwise. Whole keeps everything.
func (s *Service) trimHistoryLocked() {
	switch s.cfg.Policy {
	case engine.Static:
		if len(s.retrains) > 0 {
			s.history = s.history[:0]
		}
	case engine.Sliding:
		if len(s.history)%1024 != 0 {
			return
		}
		cutoff := s.loop.Next() - s.cfg.TrainWindow.Milliseconds()
		i := 0
		for i < len(s.history) && s.history[i].Time < cutoff {
			i++
		}
		if i > 0 {
			s.history = append(s.history[:0], s.history[i:]...)
		}
	}
}

// maybeRetrain claims every training pass the stream clock has made due
// and decides where it runs: inline on the caller (SyncRetrain, WAL
// replay), or in the background — behind the fleet's RetrainLimiter when
// one is set — with at most one pass in flight.
func (s *Service) maybeRetrain() {
	// Due first: the retraining flag (stream_retraining) must not flicker
	// on every event.
	for s.loop.Due(s.watermarkMs()) && s.retraining.CompareAndSwap(false, true) {
		p, ok := s.loop.Claim(s.watermarkMs())
		if !ok {
			s.retraining.Store(false)
			return
		}
		snapshot := s.snapshotTrainingSet(p)
		if s.cfg.SyncRetrain || s.replaying {
			// Inline on the caller (the collector, or recovery's replay loop):
			// the swap lands at a deterministic stream position. WAL replay must
			// train inline regardless of configuration — the events that would
			// have fed a background pass are being replayed synchronously.
			s.retrain(p, snapshot)
			continue
		}
		s.retrainWG.Add(1)
		go func() {
			defer s.retrainWG.Done()
			if lim := s.cfg.RetrainLimiter; lim != nil {
				// Fleet mode: wait for a fleet-wide training slot off the hot
				// path. Ingestion and prediction continue on the old rules while
				// the pass queues; s.retraining stays set, so this service cannot
				// stack up a second pending pass behind the first.
				lim.acquire()
				defer lim.release()
			}
			s.retrain(p, snapshot)
			// The stream may have crossed the next boundary while we trained
			// (or gone idle right after); catch up instead of waiting for the
			// next processed event. WG ordering is safe: this Add (if any)
			// happens before our own deferred Done.
			s.maybeRetrain()
		}()
		return
	}
}

// snapshotTrainingSet copies the pass's training slice [p.From, p.At)
// out of the (time-sorted) history.
func (s *Service) snapshotTrainingSet(p engine.Pass) []preprocess.TaggedEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.history
	lo := sort.Search(len(h), func(i int) bool { return h[i].Time >= p.From })
	hi := sort.Search(len(h), func(i int) bool { return h[i].Time >= p.At })
	return append([]preprocess.TaggedEvent(nil), h[lo:hi]...)
}

// retrain runs one claimed pass through the loop, which swaps the
// refreshed predictor in atomically, and records it. On error the
// previous rule set stays live.
func (s *Service) retrain(p engine.Pass, snapshot []preprocess.TaggedEvent) RetrainRecord {
	rec := RetrainRecord{At: p.At}
	rt, err := s.loop.Train(p, snapshot)
	if err != nil {
		rec.Err = err.Error()
	} else {
		rec.Retraining = rt
		if s.store != nil {
			// Ask for a snapshot at the next consistent cut: the collector's
			// next release point, or the end of a replicated batch. Recovery
			// replay snapshots once at its end instead — the WAL files being
			// read must not be pruned under the iterator.
			s.snapPending.Store(true)
		}
	}
	s.mu.Lock()
	s.retrains = append(s.retrains, rec)
	if s.cfg.Policy == engine.Static && err == nil {
		s.history = s.history[:0] // a static service never trains again
	}
	s.mu.Unlock()
	s.retraining.Store(false)
	return rec
}

// ErrNoEvents is returned by TrainNow before the first event has reached
// the collector: there is no history to train on and no stream clock to
// schedule against.
var ErrNoEvents = errors.New("stream: no events observed yet; nothing to train on")

// TrainNow runs a synchronous training pass over the accumulated history
// up to the current watermark and swaps the result in. It is the manual
// override of the stream-time schedule (exposed as POST /retrain): a
// successful pass counts against the schedule, so the next automatic
// training happens one full cadence later instead of re-firing on
// near-identical data.
func (s *Service) TrainNow() (RetrainRecord, error) {
	if s.standby.Load() {
		return RetrainRecord{}, ErrStandby
	}
	if s.loop.Start() < 0 {
		return RetrainRecord{}, ErrNoEvents
	}
	if !s.retraining.CompareAndSwap(false, true) {
		return RetrainRecord{}, errors.New("stream: retraining already in flight")
	}
	// Claim the schedule before training, exactly like maybeRetrain: the
	// catch-up below must not see a stale boundary and immediately re-fire
	// the scheduled pass on the data we just used. A failed pass hands
	// the schedule back.
	p := s.loop.ClaimAt(s.watermarkMs() + 1)
	snapshot := s.snapshotTrainingSet(p)
	s.retrainWG.Add(1)
	rec := s.retrain(p, snapshot)
	s.maybeRetrain()
	s.retrainWG.Done()
	if rec.Err != "" {
		return rec, errors.New(rec.Err)
	}
	return rec, nil
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

// Warnings returns up to n of the most recent warnings, newest last. The
// copy is taken under the warnings ring's own short critical section —
// never under the service mutex — so callers that consume the result
// slowly (a firehose reader on a congested socket) cannot stall the
// collector (TestWarningsReaderDoesNotStallPipeline).
func (s *Service) Warnings(n int) []predictor.Warning {
	s.warnMu.Lock()
	defer s.warnMu.Unlock()
	if n <= 0 || n > len(s.warnings) {
		n = len(s.warnings)
	}
	return append([]predictor.Warning(nil), s.warnings[len(s.warnings)-n:]...)
}

// Rules returns the live predictor's rule set (nil before first training).
func (s *Service) Rules() []learner.Rule {
	pr := s.loop.Predictor()
	if pr == nil {
		return nil
	}
	return pr.Rules()
}

// QueueDepths reports the instantaneous channel occupancy per stage.
type QueueDepths struct {
	Sequencer int   `json:"sequencer"`
	Reorder   int   `json:"reorder"`
	Shards    []int `json:"shards"`
	Collector int   `json:"collector"`
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	// Ingested counts events accepted by Ingest; Sequenced the events
	// released in order (Ingested - Sequenced - LateDropped are still
	// buffered); LateDropped the events beyond the reorder tolerance.
	Ingested    int64 `json:"ingested"`
	Sequenced   int64 `json:"sequenced"`
	LateDropped int64 `json:"late_dropped"`
	// Rejected counts ingest calls that timed out against a saturated
	// pipeline (ErrSaturated — one per HTTP 429 the ingest handlers
	// returned). The events were never accepted and are not in Ingested.
	Rejected int64 `json:"ingest_rejected"`
	// ReorderOverflow counts events released early by the buffer cap while
	// still inside the reorder tolerance (disjoint from LateDropped: a
	// forced release increments exactly one of the two).
	ReorderOverflow int64 `json:"reorder_overflow"`
	// AfterTemporal / Processed are the filter's per-stage survivors;
	// CompressionRate is 1 - Processed/Sequenced.
	AfterTemporal   int64   `json:"after_temporal"`
	Processed       int64   `json:"processed"`
	CompressionRate float64 `json:"compression_rate"`
	Fatals          int64   `json:"fatals"`
	WarningsTotal   int64   `json:"warnings_total"`
	Rules           int64   `json:"rules"`
	Retraining      bool    `json:"retraining"`
	// StreamStart / Watermark / NextRetrain are stream-time (ms);
	// StreamStart is -1 before the first event and NextRetrain is -1 when
	// no training will ever be due again (static policy after its pass).
	StreamStart int64           `json:"stream_start_ms"`
	Watermark   int64           `json:"watermark_ms"`
	NextRetrain int64           `json:"next_retrain_ms"`
	Queues      QueueDepths     `json:"queues"`
	Retrains    []RetrainRecord `json:"retrains"`
	// Recovery describes the startup recovery pass; nil when the service
	// started without a StateDir or with an empty one.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
	// Role is "leader" for a live pipeline, "standby" for a replica
	// awaiting promotion. Standby holds the replica's replication state
	// while in standby; Backfill reports historical intake (both nil when
	// idle/irrelevant).
	Role     string        `json:"role"`
	Standby  *StandbyInfo  `json:"standby,omitempty"`
	Backfill *BackfillInfo `json:"backfill,omitempty"`
}

// StandbyInfo is a standby replica's replication position (Stats.Standby).
type StandbyInfo struct {
	// NextSeq is the next sequence the replica will apply; LeaderSeq the
	// leader's next append sequence at the last poll. LagSeq is their
	// difference, LagSeconds the stream-time distance between watermarks.
	NextSeq    uint64  `json:"next_seq"`
	LeaderSeq  uint64  `json:"leader_seq"`
	LagSeq     uint64  `json:"lag_seq"`
	LagSeconds float64 `json:"lag_seconds"`
	// Promotions counts standby→leader transitions (0 or 1 per process).
	Promotions int64 `json:"promotions"`
}

// Stats snapshots the service's instruments — the same registry GET
// /metrics exposes, so the JSON and Prometheus views cannot disagree.
// Instruments are read individually, so a snapshot taken mid-flight may
// be momentarily inconsistent (e.g. Processed ahead of a just-read
// Sequenced); each number is accurate.
func (s *Service) Stats() Stats {
	st := Stats{
		Ingested:        s.m.ingested.Value(),
		Sequenced:       s.m.sequenced.Value(),
		LateDropped:     s.m.lateDropped.Value(),
		Rejected:        s.m.rejected.Value(),
		ReorderOverflow: s.m.reorderOverflow.Value(),
		AfterTemporal:   s.m.afterTemporal.Value(),
		Processed:       s.m.processed.Value(),
		Fatals:          s.m.fatals.Value(),
		WarningsTotal:   s.m.warningsTotal.Value(),
		Rules:           int64(len(s.Rules())),
		Retraining:      s.retraining.Load(),
		StreamStart:     s.loop.Start(),
		Watermark:       s.watermarkMs(),
		Queues: QueueDepths{
			Sequencer: len(s.seqCh),
			Reorder:   int(s.m.reorderDepth.Value()),
			Shards:    make([]int, len(s.shardChs)),
			Collector: len(s.collectCh),
		},
	}
	for i, ch := range s.shardChs {
		st.Queues.Shards[i] = len(ch)
	}
	if st.Sequenced > 0 {
		st.CompressionRate = 1 - float64(st.Processed)/float64(st.Sequenced)
	}
	st.NextRetrain = s.loop.Next()
	s.mu.Lock()
	st.Retrains = append([]RetrainRecord(nil), s.retrains...)
	s.mu.Unlock()
	if s.store != nil {
		r := s.recovery
		st.Recovery = &r
	}
	st.Role = "leader"
	if s.standby.Load() {
		st.Role = "standby"
	}
	// A promoted replica keeps reporting its standby block so the
	// promotion count survives the role flip.
	if st.Role == "standby" || s.m.promotions.Value() > 0 {
		st.Standby = &StandbyInfo{
			NextSeq:    atomic.LoadUint64(&s.replNext),
			LeaderSeq:  atomic.LoadUint64(&s.leaderSeq),
			LagSeq:     uint64(s.m.standbyLagSeq.Value()),
			LagSeconds: s.m.standbyLagSeconds.Value(),
			Promotions: s.m.promotions.Value(),
		}
	}
	if b := s.backfillInfo(); b != nil {
		st.Backfill = b
	}
	return st
}
