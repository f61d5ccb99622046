package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/meta"
	"repro/internal/obsv"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// batchOracle is the paper's loop written out week by week with the
// batch trainer (TrainStep over each pass's slice): the reference every
// incremental Run must reproduce. It returns the result and the rule set
// after each pass.
func batchOracle(t *testing.T, events []preprocess.TaggedEvent, start int64, weeks int, cfg Config) (*Result, [][]learner.Rule) {
	t.Helper()
	ml := meta.New().SetParallelism(1)
	repo := meta.NewRepository()
	weekMs := int64(raslog.MillisPerWeek)
	at := func(week int) int64 { return start + int64(week)*weekMs }
	index := func(t int64) int {
		return sort.Search(len(events), func(i int) bool { return events[i].Time >= t })
	}
	res := &Result{Config: cfg, Start: start, Weeks: weeks, TestFrom: cfg.InitialTrainWeeks}
	var rules [][]learner.Rule
	train := func(week int) {
		from := start
		if cfg.Policy == Sliding && week > cfg.TrainWeeks {
			from = at(week - cfg.TrainWeeks)
		}
		rt, err := TrainStep(ml, repo, events[index(from):index(at(week))], cfg.Params)
		if err != nil {
			t.Fatal(err)
		}
		rt.Week = week
		res.Retrainings = append(res.Retrainings, rt)
		rules = append(rules, repo.Rules())
	}

	train(cfg.InitialTrainWeeks)
	pr := NewPredictor(repo.Rules(), cfg.Params, cfg.KindFilter, nil)
	next := cfg.InitialTrainWeeks + cfg.RetrainWeeks
	if cfg.Policy == Static {
		next = weeks + 1
	}
	i := index(at(cfg.InitialTrainWeeks))
	for week := cfg.InitialTrainWeeks; week < weeks; week++ {
		if week == next {
			train(week)
			pr = NewPredictor(repo.Rules(), cfg.Params, cfg.KindFilter, pr)
			next += cfg.RetrainWeeks
		}
		for ; i < len(events) && events[i].Time < at(week+1); i++ {
			res.Warnings = append(res.Warnings, pr.Observe(events[i])...)
			if events[i].Fatal {
				res.FatalTimes = append(res.FatalTimes, events[i].Time)
			}
		}
	}
	res.Weekly = eval.Weekly(res.Warnings, res.FatalTimes, start, weeks)
	res.Overall = eval.Match(res.Warnings, res.FatalTimes)
	return res, rules
}

// TestRunIncrementalEquivalence pins the headline contract of the
// incremental trainer: Run produces exactly the warnings, evaluation,
// per-pass rules and rule churn of the batch oracle — the
// sufficient-statistics maintenance is an optimization, never a behavior
// change. It also checks the pass records: the first pass is the sole
// full rebuild, every later pass a delta-apply.
func TestRunIncrementalEquivalence(t *testing.T) {
	events, start := pipeline(t, 109, 20)
	for _, policy := range []Policy{Sliding, Whole} {
		t.Run(policy.String(), func(t *testing.T) {
			cfg := quickConfig()
			cfg.Policy = policy
			want, wantRules := batchOracle(t, events, start, 20, cfg)
			inc, err := Run(events, start, 20, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(want.Warnings, inc.Warnings) {
				t.Fatalf("warnings diverge: %d batch vs %d incremental",
					len(want.Warnings), len(inc.Warnings))
			}
			if !reflect.DeepEqual(want.Overall, inc.Overall) {
				t.Fatalf("overall outcome diverges: %+v vs %+v", want.Overall, inc.Overall)
			}
			if !reflect.DeepEqual(want.Weekly, inc.Weekly) {
				t.Fatal("weekly series diverge")
			}
			if len(want.Retrainings) != len(inc.Retrainings) {
				t.Fatalf("pass counts differ: %d vs %d",
					len(want.Retrainings), len(inc.Retrainings))
			}
			for i := range want.Retrainings {
				f, n := want.Retrainings[i], inc.Retrainings[i]
				if f.Week != n.Week || f.TrainEvents != n.TrainEvents ||
					f.RepoSize != n.RepoSize || f.WindowSec != n.WindowSec ||
					f.Churn != n.Churn {
					t.Errorf("pass %d records diverge: %+v vs %+v", i, f, n)
				}
				if f.Incr != nil {
					t.Errorf("pass %d: batch oracle carries IncrInfo", i)
				}
				if n.Incr == nil {
					t.Fatalf("pass %d: incremental run missing IncrInfo", i)
				}
				if i == 0 && !n.Incr.Rebuild {
					t.Error("first pass must be a full rebuild")
				}
				if i > 0 && n.Incr.Rebuild {
					t.Errorf("pass %d fell back to a rebuild: %s", i, n.Incr.Reason)
				}
			}

			// The rules themselves, pass by pass: drive the loop directly.
			lp, err := NewLoop(LoopConfig{
				Policy:  policy,
				Initial: int64(cfg.InitialTrainWeeks) * raslog.MillisPerWeek,
				Window:  int64(cfg.TrainWeeks) * raslog.MillisPerWeek,
				Every:   int64(cfg.RetrainWeeks) * raslog.MillisPerWeek,
				Params:  cfg.Params,
			})
			if err != nil {
				t.Fatal(err)
			}
			lp.Begin(start)
			history := func(from, to int64) []preprocess.TaggedEvent {
				lo := sort.Search(len(events), func(i int) bool { return events[i].Time >= from })
				hi := sort.Search(len(events), func(i int) bool { return events[i].Time >= to })
				return events[lo:hi]
			}
			pass := 0
			for _, e := range events {
				_, rts, err := lp.Step(e, history)
				if err != nil {
					t.Fatal(err)
				}
				for range rts {
					if !reflect.DeepEqual(lp.Predictor().Rules(), wantRules[pass]) {
						t.Fatalf("pass %d: incremental rules diverge from batch", pass)
					}
					pass++
				}
				if pass == len(wantRules) {
					break
				}
			}
			if pass != len(wantRules) {
				t.Fatalf("loop ran %d passes, oracle %d", pass, len(wantRules))
			}
		})
	}
}

// TestIncrementalMetricsRecorded runs the engine with a metrics recorder
// attached and checks the train_incr_* instruments and the per-mode pass
// histogram against the returned pass records, through a strict
// text-exposition round trip.
func TestIncrementalMetricsRecorded(t *testing.T) {
	events, start := pipeline(t, 110, 20)
	cfg := quickConfig()
	reg := obsv.NewRegistry()
	cfg.Metrics = NewTrainingMetrics(reg)
	res, err := Run(events, start, 20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obsv.ParseText(&buf)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}

	var applied, expired, rebuilds, deltas float64
	for _, rt := range res.Retrainings {
		if rt.Incr == nil {
			t.Fatal("incremental run missing IncrInfo")
		}
		applied += float64(rt.Incr.Applied)
		expired += float64(rt.Incr.Expired)
		if rt.Incr.Rebuild {
			rebuilds++
		} else {
			deltas++
		}
	}
	passes := float64(len(res.Retrainings))
	if passes < 2 {
		t.Fatalf("too few passes to exercise the delta path: %v", passes)
	}
	if applied == 0 {
		t.Fatal("no events applied — the window never moved")
	}
	for key, want := range map[string]float64{
		"train_incr_applied_events_total":                         applied,
		"train_incr_expired_events_total":                         expired,
		"train_incr_rebuilds_total":                               rebuilds,
		"train_incr_advance_duration_seconds_count":               passes,
		"train_pass_duration_seconds_count{mode=\"incremental\"}": deltas,
		"train_pass_duration_seconds_count{mode=\"full\"}":        rebuilds,
	} {
		if got := samples[key]; got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
	// A batch pass (the TrainStep oracle) must be labeled "full" and never
	// touch the incr counters.
	breg := obsv.NewRegistry()
	bm := NewTrainingMetrics(breg)
	bres, _ := batchOracle(t, events, start, 20, quickConfig())
	for _, rt := range bres.Retrainings {
		bm.Record(rt)
	}
	buf.Reset()
	if err := breg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	bsamples, err := obsv.ParseText(&buf)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	if got := bsamples["train_incr_applied_events_total"]; got != 0 {
		t.Errorf("batch passes applied incr events: %v", got)
	}
	key := fmt.Sprintf("train_pass_duration_seconds_count{mode=%q}", "full")
	if got := bsamples[key]; got != float64(len(bres.Retrainings)) {
		t.Errorf("%s = %v, want %v", key, got, len(bres.Retrainings))
	}
}
