// Package engine orchestrates the *dynamic* half of the framework
// (paper §4, Figure 3): it maintains the training set over time, invokes
// the meta-learner and reviser every retraining window W_R, swaps the
// refreshed rule set into the online predictor, and scores predictions
// week by week. The training-set policies (static, sliding, whole-history)
// and the retraining cadence are exactly the experimental axes of
// Figures 9 and 10.
package engine

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/meta"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// Policy selects how the training set evolves (Figure 9's four curves).
type Policy int

// Training-set policies.
const (
	// Static trains once on the initial window and never retrains —
	// Figure 9's "static" baseline.
	Static Policy = iota
	// Sliding retrains every W_R weeks on the most recent TrainWeeks of
	// data ("dynamic-6 mo" / "dynamic-3 mo").
	Sliding
	// Whole retrains every W_R weeks on all history so far
	// ("dynamic-whole").
	Whole
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Sliding:
		return "sliding"
	case Whole:
		return "whole"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes one engine run.
type Config struct {
	// Params carries the prediction / rule-generation window W_P.
	Params learner.Params
	// Policy selects the training-set evolution.
	Policy Policy
	// InitialTrainWeeks is the length of the first training set
	// (paper default: 26 weeks ≈ six months).
	InitialTrainWeeks int
	// TrainWeeks is the sliding-window length for Policy == Sliding.
	TrainWeeks int
	// RetrainWeeks is W_R, the retraining cadence (paper default 4).
	RetrainWeeks int
	// Meta supplies the learners and reviser; nil means meta.New().
	Meta *meta.MetaLearner
	// KindFilter, when non-nil, restricts the predictor to rules of one
	// family — how Figure 7 evaluates each base learner in isolation.
	KindFilter *learner.Kind
	// Tuner, when non-nil, re-selects the prediction window W_P at every
	// (re)training by validating candidate windows on the tail of the
	// training set (the paper's adaptive-window future work). Params
	// then only supplies the initial value.
	Tuner *WindowTuner
	// Parallelism bounds training concurrency (base learners, Apriori
	// counting, reviser scoring): 0 means GOMAXPROCS, 1 forces the serial
	// pipeline. Results are identical at any setting.
	Parallelism int
	// Metrics, when non-nil, records every (re)training pass — duration,
	// per-learner time, reviser time, rule churn — into an obsv registry:
	// the live version of Table 5. Nil disables recording.
	Metrics *TrainingMetrics
}

// DefaultWindowSec is the paper's base prediction / rule-generation
// window W_P (300 s, §5.2). It doubles as the alarm-spacing anchor:
// warning deduplication stays at this base window even when a run
// evaluates wider prediction windows (Figure 13), so the clamp in the
// shared predictor builder (NewPredictor) derives from this constant
// rather than repeating the literal.
const DefaultWindowSec int64 = 300

// Defaults returns the paper's default configuration: dynamic retraining
// every 4 weeks on a sliding six-month window, W_P = 300 s.
func Defaults() Config {
	return Config{
		Params:            learner.Params{WindowSec: DefaultWindowSec},
		Policy:            Sliding,
		InitialTrainWeeks: 26,
		TrainWeeks:        26,
		RetrainWeeks:      4,
	}
}

// Retraining records one (re)training pass.
type Retraining struct {
	Week        int // zero-based week at which the new rules took effect
	TrainEvents int
	RepoSize    int
	// WindowSec is the prediction window in force after this training
	// (differs from Config.Params only under a Tuner).
	WindowSec int64
	Churn     meta.Churn
	// Durations for Table 5.
	LearnerDurations map[string]time.Duration
	ReviseDuration   time.Duration
	Total            time.Duration
	// Incr describes the incremental sufficient-statistics advance behind
	// this pass; nil for a batch pass (TrainStep).
	Incr *IncrInfo
}

// IncrInfo records what the incremental maintainer did for one pass:
// the delta it applied, or the full-rebuild fallback it fell into.
type IncrInfo struct {
	// Applied and Expired count the events that entered / left the
	// training window in this advance.
	Applied int
	Expired int
	// Rebuild marks a full rebuild fallback; Reason says why.
	Rebuild bool
	Reason  string `json:",omitempty"`
	// AdvanceDuration is the time spent updating the sufficient
	// statistics (the delta-apply itself, excluding rule emission).
	AdvanceDuration time.Duration
}

// Result is the outcome of an engine run.
type Result struct {
	Config      Config
	Start       int64 // ms of week 0
	Weeks       int
	TestFrom    int // first predicted week (== InitialTrainWeeks)
	Warnings    []predictor.Warning
	FatalTimes  []int64 // fatals in the test span
	Weekly      []eval.WeekPoint
	Overall     eval.Outcome
	Retrainings []Retraining
	// MatchDuration is the total time spent in the event-driven predictor
	// over the whole test span (the "rule matching" column of Table 5).
	MatchDuration time.Duration
}

// TrainStep runs one (re)training pass — meta-learner over the training
// slice, reviser, repository swap — and returns its record. It is the
// batch oracle of the loop's incremental pass (Loop.Train): both must
// produce the same rules and churn over the same slice. The returned
// Retraining has Week zero.
func TrainStep(ml *meta.MetaLearner, repo *meta.Repository, slice []preprocess.TaggedEvent, params learner.Params) (Retraining, error) {
	return TrainStepPrepared(ml, repo, learner.Prepare(slice), params)
}

// TrainStepPrepared is TrainStep over a caller-prepared training view —
// Loop.Train installs its maintained sufficient statistics on the view
// before coming in here.
func TrainStepPrepared(ml *meta.MetaLearner, repo *meta.Repository, pre *learner.Prepared, params learner.Params) (Retraining, error) {
	slice := pre.Events
	t0 := time.Now()
	report, err := ml.TrainPrepared(pre, params)
	if err != nil {
		return Retraining{}, err
	}
	churn := repo.Update(report)
	return Retraining{
		TrainEvents:      len(slice),
		RepoSize:         repo.Len(),
		WindowSec:        params.WindowSec,
		Churn:            churn,
		LearnerDurations: report.LearnerDurations,
		ReviseDuration:   report.ReviseDuration,
		Total:            time.Since(t0),
	}, nil
}

// Run executes the framework over a preprocessed, time-sorted event
// stream spanning [start, start + weeks). Training happens inside the
// stream's own timeline: the first InitialTrainWeeks are training-only,
// prediction and periodic retraining cover the rest. Run is a replay of
// the events through the dynamic loop (Loop.Step), followed by the week
// boundaries after the last event that still fall inside the span.
func Run(events []preprocess.TaggedEvent, start int64, weeks int, cfg Config) (*Result, error) {
	if cfg.InitialTrainWeeks >= weeks {
		return nil, fmt.Errorf("engine: initial training (%d weeks) consumes the whole %d-week log",
			cfg.InitialTrainWeeks, weeks)
	}
	weekMs := int64(raslog.MillisPerWeek)
	lp, err := NewLoop(LoopConfig{
		Policy:      cfg.Policy,
		Initial:     int64(cfg.InitialTrainWeeks) * weekMs,
		Window:      int64(cfg.TrainWeeks) * weekMs,
		Every:       int64(cfg.RetrainWeeks) * weekMs,
		Params:      cfg.Params,
		Meta:        cfg.Meta,
		Parallelism: cfg.Parallelism,
		KindFilter:  cfg.KindFilter,
		Tuner:       cfg.Tuner,
		Metrics:     cfg.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	lp.Begin(start)
	res := &Result{Config: cfg, Start: start, Weeks: weeks, TestFrom: cfg.InitialTrainWeeks}
	testStart, end := start+int64(cfg.InitialTrainWeeks)*weekMs, start+int64(weeks)*weekMs
	index := func(t int64) int { // the first event at or after t
		return sort.Search(len(events), func(i int) bool { return events[i].Time >= t })
	}
	history := func(from, to int64) []preprocess.TaggedEvent { return events[index(from):index(to)] }

	t0 := time.Now()
	for i := index(start); i < len(events) && events[i].Time < end; i++ {
		warns, rts, err := lp.Step(events[i], history)
		res.Retrainings = append(res.Retrainings, rts...)
		if err != nil {
			return nil, err
		}
		res.Warnings = append(res.Warnings, warns...)
		if events[i].Fatal && events[i].Time >= testStart {
			res.FatalTimes = append(res.FatalTimes, events[i].Time)
		}
	}
	res.MatchDuration = time.Since(t0) // less the passes that ran inline
	for _, rt := range res.Retrainings {
		res.MatchDuration -= rt.Total
	}
	rts, err := lp.Advance(end-1, history) // boundaries after the last event
	res.Retrainings = append(res.Retrainings, rts...)
	if err != nil {
		return nil, err
	}

	res.Weekly = eval.Weekly(res.Warnings, res.FatalTimes, start, weeks)
	res.Overall = eval.Match(res.Warnings, res.FatalTimes)
	return res, nil
}

// ClampDedup pins a predictor's alarm spacing to the base rule-generation
// window when the effective prediction window is wider: sweeping W_P must
// admit more alarms, not ration them (Figure 13). NewPredictor applies
// it to every predictor the loop builds.
func ClampDedup(pr *predictor.Predictor, windowSec int64) {
	if windowSec > DefaultWindowSec {
		pr.DedupWindowSec = DefaultWindowSec
	}
}
