package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// LoopConfig assembles a Loop. The schedule is in milliseconds of stream
// time (event timestamps, never wall time). Params is the initial W_P (a
// Tuner moves it); Meta nil means meta.New(); the rest are as in Config.
type LoopConfig struct {
	Policy      Policy
	Initial     int64 // stream time before the first pass
	Window      int64 // sliding training-set length (Policy == Sliding)
	Every       int64 // W_R, the retraining cadence (unused under Static)
	Params      learner.Params
	Meta        *meta.MetaLearner
	Parallelism int
	KindFilter  *learner.Kind
	Tuner       *WindowTuner
	Metrics     *TrainingMetrics
}

// Pass is one claimed (re)training: rules learned from the events in
// [From, At) take effect at stream time At.
type Pass struct {
	At, From int64
	// A manual pass (ClaimAt) moved the schedule from prev to set, which
	// Train hands back if the pass fails; both are 0 for a scheduled pass.
	prev, set int64
}

// NewPredictor is the single predictor builder: the rules (restricted to
// one family when kind is set), the dedup policy, and the clock carried
// over from prev, the predictor being replaced (nil for none). The full
// ensemble counts overlapping alarms as one prediction (GlobalDedup); an
// isolated family keeps its own window. Alarm spacing stays at the base
// window for wider prediction windows (ClampDedup). The carry is the
// elapsed-failure clock and the per-family dedup marks together:
// re-arming the distribution expert while forgetting it just fired
// re-warns right after every swap.
func NewPredictor(rules []learner.Rule, params learner.Params, kind *learner.Kind, prev *predictor.Predictor) *predictor.Predictor {
	if kind != nil {
		filtered := rules[:0:0]
		for _, r := range rules {
			if r.Kind == *kind {
				filtered = append(filtered, r)
			}
		}
		rules = filtered
	}
	pr := predictor.New(rules, params)
	pr.GlobalDedup = kind == nil
	ClampDedup(pr, params.WindowSec)
	if prev != nil {
		pr.SeedLastFatal(prev.LastFatal())
		pr.SeedLastWarn(prev.LastWarnTimes())
	}
	return pr
}

// Loop is the paper's dynamic loop (§4, Figure 3) — retrain every W_R on
// the policy's window, swap the rules into the event-driven predictor —
// and its only implementation: Run replays a log through it, the
// streaming service drives it live. It owns the schedule, the training
// pass (incremental, internal/learner/incr), the predictor builder and
// the clock carried across a swap. Two rules make every driver agree
// event for event: new rules take effect before the first event at or
// after their boundary is observed, and the carried fatal clock counts
// only fatals some predictor observed (never the training-only prefix).
//
// Begin, Claim and Observe run on one goroutine (the clock); ClaimAt and
// Train may run on others, but passes must not overlap. The predictor is
// published atomically, so a pass off the clock goroutine swaps without
// stopping observation.
type Loop struct {
	cfg    LoopConfig
	repo   *meta.Repository
	st     *incr.State
	params learner.Params // effective W_P: only Train moves it (Tuner)

	start, next atomic.Int64 // ms; -1 before Begin; next -1 = never again

	pr atomic.Pointer[predictor.Predictor]
	// rules is the repository's content as of the last swap or restore:
	// what Export persists, readable while a pass updates the repository.
	rules atomic.Pointer[[]learner.Rule]
	// The carry, mirrored by Observe: a pass on another goroutine never
	// reads the predictor the clock goroutine is mutating.
	lastFatal atomic.Int64
	lastWarn  [3]atomic.Int64
}

// NewLoop validates cfg and returns a loop whose clock has not started.
func NewLoop(cfg LoopConfig) (*Loop, error) {
	switch {
	case cfg.Params.WindowSec <= 0:
		return nil, fmt.Errorf("WindowSec = %d, need > 0", cfg.Params.WindowSec)
	case cfg.Initial <= 0:
		return nil, errors.New("initial training span must be > 0")
	case cfg.Policy == Sliding && cfg.Window <= 0:
		return nil, errors.New("sliding policy needs a training window > 0")
	case cfg.Policy != Static && cfg.Every <= 0:
		return nil, errors.New("dynamic policy needs a retraining cadence > 0")
	}
	if cfg.Meta == nil {
		cfg.Meta = meta.New()
	}
	if cfg.Parallelism != 0 {
		cfg.Meta.SetParallelism(cfg.Parallelism)
	}
	l := &Loop{cfg: cfg, repo: meta.NewRepository(), params: cfg.Params,
		st: incr.New(meta.IncrConfig(cfg.Meta, cfg.Params))}
	for _, v := range []*atomic.Int64{&l.start, &l.next, &l.lastFatal, &l.lastWarn[0], &l.lastWarn[1], &l.lastWarn[2]} {
		v.Store(-1)
	}
	return l, nil
}

// Begin starts the clock at stream time t unless it runs already: the
// first pass falls due at t + Initial.
func (l *Loop) Begin(t int64) {
	if l.start.Load() < 0 {
		l.next.Store(t + l.cfg.Initial) // before start: ClaimAt keys off start
		l.start.Store(t)
	}
}

// Start is the stream time the clock started at (-1 before Begin); Next
// the next scheduled boundary (-1 before Begin, and once Static trained).
func (l *Loop) Start() int64 { return l.start.Load() }
func (l *Loop) Next() int64  { return l.next.Load() }

// Due reports whether the clock at t has reached the next boundary.
func (l *Loop) Due(t int64) bool { n := l.next.Load(); return n >= 0 && t >= n }

// Claim takes the next boundary the clock at t has reached, if any, and
// moves the schedule one cadence past it (never again under Static).
func (l *Loop) Claim(t int64) (Pass, bool) {
	at := l.next.Load()
	if at < 0 || t < at {
		return Pass{}, false
	}
	next := int64(-1)
	if l.cfg.Policy != Static {
		next = at + l.cfg.Every
	}
	if !l.next.CompareAndSwap(at, next) {
		return Pass{}, false
	}
	return Pass{At: at, From: l.from(at)}, true
}

// ClaimAt claims a manual pass over everything before at. It counts
// against the schedule: the next scheduled pass moves to one cadence
// after at (a Static loop never trains again).
func (l *Loop) ClaimAt(at int64) Pass {
	for {
		prev := l.next.Load()
		next := max(prev, at+l.cfg.Every)
		if l.cfg.Policy == Static {
			next = -1
		}
		if l.next.CompareAndSwap(prev, next) {
			return Pass{At: at, From: l.from(at), prev: prev, set: next}
		}
	}
}

// from is the policy's training-window start for a pass ending at at.
func (l *Loop) from(at int64) int64 {
	if l.cfg.Policy == Sliding {
		return max(l.start.Load(), at-l.cfg.Window)
	}
	return l.start.Load()
}

// Train runs pass p over events, the time-sorted training set [p.From,
// p.At), and swaps the refreshed rules in. The pass delta-applies what
// entered and left the window to the maintained sufficient statistics;
// incr rebuilds on the first pass, a parameter change or a drift-audit
// mismatch, with identical rules either way (TrainStep is the batch
// oracle). On error the previous rules stay live.
func (l *Loop) Train(p Pass, events []preprocess.TaggedEvent) (Retraining, error) {
	rt, err := l.train(p, events)
	if err != nil {
		l.cfg.Metrics.RecordError()
		l.next.CompareAndSwap(p.set, p.prev)
		return Retraining{}, err
	}
	l.cfg.Metrics.Record(rt)
	l.Install(nil)
	return rt, nil
}

func (l *Loop) train(p Pass, events []preprocess.TaggedEvent) (Retraining, error) {
	t0 := time.Now()
	if l.cfg.Tuner != nil {
		wp, _, err := l.cfg.Tuner.Choose(events, l.cfg.Meta)
		if err != nil {
			return Retraining{}, err
		}
		if wp > 0 {
			l.params.WindowSec = wp
		}
	}
	pre := learner.Prepare(events)
	ta := time.Now()
	d := l.st.Advance(events, p.From, p.At, l.params)
	l.st.Install(pre)
	info := &IncrInfo{Applied: d.Applied, Expired: d.Expired,
		Rebuild: d.Rebuild, Reason: d.Reason, AdvanceDuration: time.Since(ta)}
	rt, err := TrainStepPrepared(l.cfg.Meta, l.repo, pre, l.params)
	rt.Incr = info
	rt.Total = time.Since(t0) // the tuner's and the advance's share too
	return rt, err
}

// Install swaps in a predictor over rules (the repository's when nil),
// carrying the clock of the predictor it replaces.
func (l *Loop) Install(rules []learner.Rule) {
	if rules != nil {
		l.repo.Restore(rules)
	}
	rules = l.repo.Rules()
	l.rules.Store(&rules)
	pr := NewPredictor(rules, l.params, l.cfg.KindFilter, nil)
	pr.SeedLastFatal(l.lastFatal.Load())
	pr.SeedLastWarn([3]int64{l.lastWarn[0].Load(), l.lastWarn[1].Load(), l.lastWarn[2].Load()})
	l.pr.Store(pr)
}

// Predictor returns the live predictor; nil before the first pass.
func (l *Loop) Predictor() *predictor.Predictor { return l.pr.Load() }

// Observe feeds e to the live predictor (nothing happens before the
// first pass) and returns its warnings.
func (l *Loop) Observe(e preprocess.TaggedEvent) []predictor.Warning {
	pr := l.pr.Load()
	if pr == nil {
		return nil
	}
	warns := pr.Observe(e)
	if e.Fatal {
		l.lastFatal.Store(e.Time)
	}
	for _, w := range warns {
		if w.Time > l.lastWarn[w.Source].Load() {
			l.lastWarn[w.Source].Store(w.Time)
		}
	}
	return warns
}

// Step is the per-event tick of an in-order replay: every pass whose
// boundary e.Time reached runs first, inline, over history(from, to);
// then the live predictor observes e.
func (l *Loop) Step(e preprocess.TaggedEvent, history func(from, to int64) []preprocess.TaggedEvent) ([]predictor.Warning, []Retraining, error) {
	rts, err := l.Advance(e.Time, history)
	if err != nil {
		return nil, rts, err
	}
	return l.Observe(e), rts, nil
}

// Advance moves the clock to t without an event, running every pass due
// by then inline. Records carry Week, counted from the clock's start.
func (l *Loop) Advance(t int64, history func(from, to int64) []preprocess.TaggedEvent) ([]Retraining, error) {
	var rts []Retraining
	for p, ok := l.Claim(t); ok; p, ok = l.Claim(t) {
		rt, err := l.Train(p, history(p.From, p.At))
		if err != nil {
			return rts, err
		}
		rt.Week = int((p.At - l.Start()) / raslog.MillisPerWeek)
		rts = append(rts, rt)
	}
	return rts, nil
}

// Export writes the loop's share of a durable snapshot: rules, schedule,
// carried clock, predictor state and sufficient statistics. Call it on
// the clock goroutine (the predictor is read unsynchronized); an
// in-flight pass is safe: the rules are those of the last swap, and the
// statistics lock themselves.
func (l *Loop) Export(snap *persist.Snapshot) error {
	var rules []learner.Rule
	if r := l.rules.Load(); r != nil {
		rules = *r
	}
	wire, err := persist.EncodeRules(rules)
	if err != nil {
		return err
	}
	snap.Rules, snap.LastFatalMs = wire, l.lastFatal.Load()
	snap.StreamStartMs, snap.NextRetrainMs = l.start.Load(), l.next.Load()
	if pr := l.pr.Load(); pr != nil {
		st := pr.ExportState()
		snap.Predictor = &st
	}
	snap.Incr, err = l.st.Export()
	return err
}

// Restore loads a snapshot into a loop that has not run. It reports
// whether the sufficient statistics came back; when they did not (none
// persisted, or a version or configuration mismatch) the next pass
// rebuilds.
func (l *Loop) Restore(snap *persist.Snapshot) (incrRestored bool, err error) {
	rules, err := persist.DecodeRules(snap.Rules)
	if err != nil {
		return false, err
	}
	l.lastFatal.Store(snap.LastFatalMs)
	if st := snap.Predictor; st != nil {
		for i, v := range st.LastWarnMs {
			l.lastWarn[i].Store(v)
		}
		l.Install(rules)
		l.pr.Load().RestoreState(*st)
	} else {
		l.repo.Restore(rules)
		l.rules.Store(&rules)
	}
	l.next.Store(snap.NextRetrainMs)
	l.start.Store(snap.StreamStartMs)
	return len(snap.Incr) > 0 && l.st.Restore(snap.Incr) == nil, nil
}
