package engine

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/eval"
	"repro/internal/learner"
	"repro/internal/meta"
	"repro/internal/preprocess"
	"repro/internal/raslog"
)

// WindowTuner implements the paper's first future-work item: "adaptively
// changing this window size such that the system can automatically tune
// its size to reduce the training cost, without sacrificing the
// prediction accuracy."
//
// At every (re)training, the tuner holds out the tail of the training
// span, trains a candidate rule set per window size on the remainder,
// validates each candidate on the held-out tail, and picks the smallest
// window whose objective comes within Tolerance of the best — smaller
// windows mean cheaper event tracking and tighter warnings.
type WindowTuner struct {
	// Candidates are the window sizes (seconds) to consider, ascending.
	Candidates []int64
	// ValidationWeeks is the held-out tail length (default 4).
	ValidationWeeks int
	// Tolerance is how far below the best objective the chosen (smaller)
	// window may fall (default 0.05).
	Tolerance float64
	// Objective scores a validation outcome; nil means F1.
	Objective func(eval.Outcome) float64
}

// NewWindowTuner returns a tuner over the paper's Figure 13 window range.
func NewWindowTuner() *WindowTuner {
	return &WindowTuner{
		Candidates:      []int64{300, 900, 1800, 3600, 7200},
		ValidationWeeks: 4,
		Tolerance:       0.05,
	}
}

// WindowScore is one candidate's validation result.
type WindowScore struct {
	WindowSec int64
	Outcome   eval.Outcome
	Score     float64
	TrainTime time.Duration
	Chosen    bool
}

// f1 is the default objective.
func f1(o eval.Outcome) float64 {
	p, r := o.Precision(), o.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Choose evaluates every candidate window over a training stream and
// returns the selected window plus the full scorecard. The stream must be
// time-sorted; it is split into a fit segment and a ValidationWeeks tail.
func (wt *WindowTuner) Choose(events []preprocess.TaggedEvent, ml *meta.MetaLearner) (int64, []WindowScore, error) {
	if len(wt.Candidates) == 0 {
		return 0, nil, fmt.Errorf("engine: WindowTuner has no candidates")
	}
	cands := append([]int64(nil), wt.Candidates...)
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	if len(events) == 0 {
		return cands[0], nil, nil
	}
	objective := wt.Objective
	if objective == nil {
		objective = f1
	}
	validationWeeks := wt.ValidationWeeks
	if validationWeeks <= 0 {
		validationWeeks = 4
	}
	end := events[len(events)-1].Time
	split := end - int64(validationWeeks)*raslog.MillisPerWeek
	cut := sort.Search(len(events), func(i int) bool { return events[i].Time >= split })
	fit, validation := events[:cut], events[cut:]
	if len(fit) == 0 || len(validation) == 0 {
		// Too little data to validate: fall back to the smallest window.
		return cands[0], nil, nil
	}
	fatalTimes := learner.FatalTimes(validation)

	scores := make([]WindowScore, 0, len(cands))
	best := math.Inf(-1)
	for _, wp := range cands {
		params := learner.Params{WindowSec: wp}
		t0 := time.Now()
		report, err := ml.Train(fit, params)
		if err != nil {
			return 0, scores, err
		}
		warnings := NewPredictor(report.Kept, params, nil, nil).ObserveAll(validation)
		outcome := eval.Match(warnings, fatalTimes)
		score := WindowScore{
			WindowSec: wp,
			Outcome:   outcome,
			Score:     objective(outcome),
			TrainTime: time.Since(t0),
		}
		if score.Score > best {
			best = score.Score
		}
		scores = append(scores, score)
	}
	// Smallest window within Tolerance of the best.
	chosen := cands[len(cands)-1]
	for i := range scores {
		if scores[i].Score >= best-wt.Tolerance {
			chosen = scores[i].WindowSec
			break
		}
	}
	for i := range scores {
		scores[i].Chosen = scores[i].WindowSec == chosen
	}
	return chosen, scores, nil
}
