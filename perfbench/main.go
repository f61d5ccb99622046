// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds cmd/serve and cmd/predict from the checkout and
// this program, then runs
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (see README.md for why each was chosen):
//
//	ingest_durable  durable cmd/serve, crash-restarted in set-up, open-loop
//	                rate ladder of an in-order SDSC feed with log storms
//	retrain_churn   in-memory cmd/serve with a short sliding window and
//	                retrain cadence, same kind of feed
//
// Each workload also replays its feed offline through cmd/predict.
// With --trace 0 the last stdout line carries the end-to-end metrics
// named in BENCHMARK.json; with --trace 1 it carries the per-layer ones:
// the traced in-process run's layer figures and the run-level figures
// that carry no bound. Progress and diagnostics go to stderr; the exit
// code is 1 when a correctness check fails or the run cannot complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// workload is what differs between the workloads: the daemon's
// durability and training schedule, and the warm prefix set-up feeds.
type workload struct {
	name    string
	durable bool
	// Daemon schedule in stream-time weeks (cmd/serve -train/-retrain).
	trainWeeks, retrainWeeks float64
	// prefixWeeks of feed are sent closed-loop in set-up.
	prefixWeeks float64
}

var workloads = map[string]*workload{
	"ingest_durable": {name: "ingest_durable", durable: true, trainWeeks: 4, retrainWeeks: 4, prefixWeeks: 5},
	"retrain_churn":  {name: "retrain_churn", trainWeeks: 2, retrainWeeks: 0.25, prefixWeeks: 2.5},
}

// rungs is the fixed open-loop ladder in events/s, shared by both
// workloads; rungs[nominalRung] is the rung whose latency, CPU and memory
// are reported. It runs for half the measured time, the other rungs share
// the other half.
var rungs = []float64{8000, 16000, 32000, 64000, 128000}

const (
	nominalRung = 1
	// maxBatch caps the events in one POST; batches are self-clocking
	// below it (everything due when the connection frees up).
	maxBatch = 256
	// ackLimit is the p99 ack latency a sustainable rung must meet.
	ackLimit = 100 * time.Millisecond
	// feedWeeks is the length of one generated feed epoch.
	feedWeeks = 32
	// setups is how many times set-up runs for the setup_s median.
	setups = 9
	// The offline replay: replayEpochs feed epochs through cmd/predict
	// with the paper's schedule (-train 26 -retrain 4).
	replayEpochs               = 4
	replayTrain, replayRetrain = 26, 4
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of stdout.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env locates the built programs and the run's working directory, all inside
// the checkout.
type env struct {
	serveBin, predictBin string
	work                 string
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds (the rate ladder)")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory holding serve and predict")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if err := loadSpec("BENCHMARK.json"); err != nil {
		fail(err)
	}
	e, err := newEnv(*bin)
	if err != nil {
		fail(err)
	}
	rep, err := run(e, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	os.RemoveAll(e.work)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func newEnv(bin string) (*env, error) {
	e := &env{serveBin: filepath.Join(bin, "serve"), predictBin: filepath.Join(bin, "predict")}
	for _, p := range []string{e.serveBin, e.predictBin} {
		if _, err := os.Stat(p); err != nil {
			return nil, fmt.Errorf("program not built: %w", err)
		}
	}
	work, err := os.MkdirTemp(filepath.Dir(bin), "run-")
	if err != nil {
		return nil, err
	}
	e.work, err = filepath.Abs(work)
	return e, err
}

// logf writes a progress line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// metrics collects named figures; NaN or infinite values are refused so
// a metric is never silently missing.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	m[name] = metric{Value: v, Unit: unit}
}

func (m metrics) validate() error {
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, v.Value)
		}
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json this program obeys: the metric
// names each mode prints.
type benchSpec struct {
	EndToEnd []struct {
		Name string `json:"name"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// spec is loaded from BENCHMARK.json at the checkout root.
var spec struct{ EndToEnd, PerLayer []string }

func loadSpec(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range s.EndToEnd {
		spec.EndToEnd = append(spec.EndToEnd, m.Name)
	}
	for _, m := range s.PerLayer {
		spec.PerLayer = append(spec.PerLayer, m.Name)
	}
	return nil
}

// pick keeps exactly the named metrics; a name the run did not measure
// is an error.
func (m metrics) pick(names []string) (metrics, error) {
	out := metrics{}
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = v
	}
	return out, nil
}
