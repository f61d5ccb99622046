package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/learner"
	"repro/internal/learner/incr"
	"repro/internal/meta"
	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/predictor"
	"repro/internal/preprocess"
	"repro/internal/raslog"
	"repro/internal/stream"
)

// traceEpochs is how many feed epochs the in-process replay covers.
const traceEpochs = 2

// layers is what the traced run measured in process. Its figures are
// completed with the daemon's by finish.
type layers struct {
	m         metrics
	predicted float64 // knee prediction, recorded before the ladder
	streamP50 float64 // in-process per-event ingest latency p50, µs
}

// tracedRun replays the workload's feed through the public calls of
// each layer, once untraced and once traced, then probes the stream,
// persist, training and engine layers. It writes the spans and the knee
// prediction to the run directory before any daemon starts.
func tracedRun(e *env, w *workload, f *feed, dur time.Duration) (*layers, error) {
	n := int64(len(f.base)) * traceEpochs
	events := f.events(0, n)
	text := lines(events)
	lay := &layers{m: metrics{}}

	// The ledger replay untraced, traced, and untraced again: the traced
	// time over the mean of the two untraced ones is the tracing overhead
	// (bracketing keeps warm-up and drift out of the ratio).
	var plain time.Duration
	untraced := func() error {
		t0 := time.Now()
		_, err := ledgerReplay(e, w, text, nil)
		plain += time.Since(t0) / 2
		return err
	}
	if err := untraced(); err != nil {
		return nil, err
	}
	tr := newTracer()
	lr, err := ledgerReplay(e, w, text, tr)
	if err != nil {
		return nil, err
	}
	if err := untraced(); err != nil {
		return nil, err
	}
	lg, err := buildLedger(tr.spans)
	if err != nil {
		return nil, err
	}
	if err := lg.check(); err != nil {
		return nil, err
	}
	m := lay.m
	m.set("trace.overhead_ratio", "ratio", float64(lg.Total)/float64(plain))
	for _, name := range []string{"raslog", "preprocess", "predictor", "learner", "incr", "engine", "train", "persist"} {
		m.set("ledger."+name+"_share", "ratio", float64(lg.Layers[name])/float64(lg.Total))
	}
	m.set("ledger.unattributed_share", "ratio", float64(lg.Unattributed)/float64(lg.Total))
	m.set("ledger.total_us_per_event", "us", float64(lg.Total)/1e3/float64(n))
	lr.report(m, tr.spans, n)

	// Probes outside the ledger, each with its own spans.
	pt := newTracer()
	root := pt.begin("probe", -1, -1)
	commitP50, err := persistProbe(e, pt, root, events, lr.tagged, lr.rules, m)
	if err != nil {
		return nil, fmt.Errorf("persist probe: %w", err)
	}
	if lay.streamP50, err = streamProbe(e, w, pt, root, f, dur, m); err != nil {
		return nil, fmt.Errorf("stream probe: %w", err)
	}
	if err := recoverProbe(e, w, pt, root, f, m); err != nil {
		return nil, fmt.Errorf("recover probe: %w", err)
	}
	if err := trainProbe(pt, root, lr, m); err != nil {
		return nil, fmt.Errorf("train probe: %w", err)
	}
	pt.end(root)

	// The knee model, recorded before the ladder runs: per-event CPU
	// summed over the traced layers, and for a durable daemon the commit
	// bound of one batch in flight.
	cpuBound := 1e9 / (float64(lg.Total-lg.Unattributed) / float64(n))
	lay.predicted = cpuBound
	commitBound := 0.0
	if w.durable {
		commitBound = float64(maxBatch) / (commitP50 / 1e6)
		lay.predicted = min(cpuBound, commitBound)
	}
	pred := map[string]float64{"cpu_bound_eps": cpuBound, "commit_bound_eps": commitBound, "predicted_eps": lay.predicted}
	b, _ := json.Marshal(pred) // a map of floats always encodes
	if err := os.WriteFile(filepath.Join(e.work, "knee_prediction.json"), b, 0o644); err != nil {
		return nil, err
	}
	logf("%s: knee prediction recorded before the ladder: %s", w.name, b)

	all := append(tr.spans, pt.spans...)
	if err := (&tracer{spans: all}).flush(filepath.Join(e.work, "spans.jsonl")); err != nil {
		return nil, err
	}
	return lay, nil
}

// finish adds the figures that need the daemon's run.
func (l *layers) finish(m metrics, sv *served) {
	for k, v := range l.m {
		m[k] = v
	}
	nomUs := sv.nominal.Verdict.AckP50Ms * 1e3
	m.set("http.overhead_us", "us", nomUs-l.streamP50)
	m.set("obsv.scrape_us", "us", median(sv.scrapeUs))
	m.set("model.predicted_eps", "events/s", l.predicted)
	m.set("model.knee_error", "ratio", (sv.sustainable-l.predicted)/l.predicted)
	m.set("stream.reorder_overflow_ratio", "ratio", sv.nominal.Overflow)
	var late, sent int64
	for _, r := range sv.rungs {
		late += r.LateDrops
		sent += r.Events
	}
	m.set("stream.late_drop_ratio", "ratio", float64(late)/float64(sent))
}

// ledgerRun is what one ledger replay produced.
type ledgerRun struct {
	tagged    []preprocess.TaggedEvent
	rules     []learner.Rule
	passes    []engine.Retraining
	lastSlice []preprocess.TaggedEvent // the last pass's training window
	warnings  int
	kept      int
	temporals int
}

// ledgerReplay runs the workload's feed through the layers the daemon's
// request path calls, in the daemon's order, one batch at a time:
// parse, temporal filter, spatial filter, categorize, predictor observe,
// and at each retrain boundary the training pass and predictor rebuild;
// a durable workload also appends each batch to a WAL and waits for its
// commit. With a nil tracer nothing is recorded.
func ledgerReplay(e *env, w *workload, text [][]byte, tr *tracer) (*ledgerRun, error) {
	cfg := w.streamConfig()
	params := cfg.Params
	ml := meta.New()
	repo := meta.NewRepository()
	st := incr.New(meta.IncrConfig(ml, params))
	temporal := preprocess.NewTemporalStage(cfg.Filter)
	spatial := preprocess.NewSpatialStage(cfg.Filter)
	zer := preprocess.NewCategorizer(preprocess.NewCatalog())
	in := raslog.NewInterner()
	var store *persist.Store
	if w.durable {
		dir := filepath.Join(e.work, fmt.Sprintf("ledger-wal-%v", tr != nil))
		var err error
		if store, err = persist.Open(dir, persist.Options{}); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		defer store.Close()
		if err := store.StartAppend(0); err != nil {
			return nil, err
		}
	}

	out := &ledgerRun{}
	var (
		pr      *predictor.Predictor
		next    int64 = -1
		seq     uint64
		batch   []raslog.Event
		keptIdx []int
	)
	trainMs, everyMs := cfg.TrainWindow.Milliseconds(), cfg.RetrainEvery.Milliseconds()
	root := tr.begin("ledger", -1, -1)
	for lo := 0; lo < len(text); lo += maxBatch {
		req := int64(lo / maxBatch)
		chunk := text[lo:min(lo+maxBatch, len(text))]

		s := tr.begin("raslog.parse", root, req)
		batch = batch[:0]
		for _, l := range chunk {
			ev, err := raslog.ParseLineBytes(bytes.TrimSuffix(l, []byte{'\n'}), in)
			if err != nil {
				return nil, err
			}
			batch = append(batch, ev)
		}
		tr.end(s)

		if store != nil {
			s = tr.begin("persist.append", root, req)
			_, ticket, err := store.AppendBatch(seq, batch)
			tr.end(s)
			if err != nil {
				return nil, err
			}
			seq += uint64(len(batch))
			s = tr.begin("persist.commit_wait", root, req)
			err = ticket.Wait(context.Background())
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}

		s = tr.begin("preprocess.temporal", root, req)
		keptIdx = keptIdx[:0]
		for i, ev := range batch {
			if temporal.Observe(ev) {
				keptIdx = append(keptIdx, i)
			}
		}
		tr.end(s)
		out.temporals += len(keptIdx)

		s = tr.begin("preprocess.spatial", root, req)
		n := 0
		for _, i := range keptIdx {
			if spatial.Observe(batch[i]) {
				keptIdx[n] = i
				n++
			}
		}
		keptIdx = keptIdx[:n]
		tr.end(s)

		s = tr.begin("preprocess.categorize", root, req)
		first := len(out.tagged)
		for _, i := range keptIdx {
			class, fatal := zer.Categorize(batch[i])
			out.tagged = append(out.tagged, preprocess.TaggedEvent{Event: batch[i], Class: class, Fatal: fatal})
		}
		tr.end(s)

		for k := first; k < len(out.tagged); k++ {
			te := out.tagged[k]
			if next < 0 {
				next = te.Time + cfg.InitialTrain.Milliseconds()
			}
			for te.Time >= next {
				if err := trainAt(tr, root, req, out, ml, repo, st, params, next, trainMs); err != nil {
					return nil, err
				}
				s = tr.begin("predictor.build", root, req)
				pr = predictor.New(repo.Rules(), params)
				pr.GlobalDedup = true
				engine.ClampDedup(pr, params.WindowSec)
				tr.end(s)
				next += everyMs
			}
			if pr != nil {
				s = tr.begin("predictor.observe", root, req)
				out.warnings += len(pr.Observe(te))
				tr.end(s)
			}
		}
	}
	tr.end(root)
	out.kept = len(out.tagged)
	out.rules = repo.Rules()
	return out, nil
}

// trainAt runs the service's retrain sequence for the boundary at:
// copy the window, prepare it, advance the incremental statistics, run
// the training step.
func trainAt(tr *tracer, root int, req int64, out *ledgerRun, ml *meta.MetaLearner, repo *meta.Repository,
	st *incr.State, params learner.Params, at, trainMs int64) error {
	from := at - trainMs
	s := tr.begin("train.copy", root, req)
	var slice []preprocess.TaggedEvent
	for _, te := range out.tagged {
		if te.Time >= from && te.Time < at {
			slice = append(slice, te)
		}
	}
	tr.end(s)
	s = tr.begin("learner.prepare", root, req)
	pre := learner.Prepare(slice)
	tr.end(s)
	s = tr.begin("incr.advance", root, req)
	d := st.Advance(slice, from, at, params)
	st.Install(pre)
	tr.end(s)
	s = tr.begin("engine.train_step", root, req)
	rt, err := engine.TrainStepPrepared(ml, repo, pre, params)
	tr.end(s)
	if err != nil {
		return err
	}
	rt.Incr = &engine.IncrInfo{Rebuild: d.Rebuild}
	out.passes = append(out.passes, rt)
	out.lastSlice = slice
	return nil
}

// spanDurations returns the durations (ns) of the spans with this name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// report turns the traced ledger replay into per-call figures.
func (lr *ledgerRun) report(m metrics, spans []span, n int64) {
	m.set("raslog.parse_ns_per_line", "ns", sum(spanDurations(spans, "raslog.parse"))/float64(n))
	m.set("preprocess.temporal_ns_per_event", "ns", sum(spanDurations(spans, "preprocess.temporal"))/float64(n))
	m.set("preprocess.spatial_ns_per_event", "ns", sum(spanDurations(spans, "preprocess.spatial"))/float64(max(lr.temporals, 1)))
	m.set("preprocess.categorize_ns_per_event", "ns", sum(spanDurations(spans, "preprocess.categorize"))/float64(max(lr.kept, 1)))
	m.set("preprocess.keep_ratio", "ratio", float64(lr.kept)/float64(n))
	m.set("predictor.observe_ns_per_event", "ns", sum(spanDurations(spans, "predictor.observe"))/float64(max(lr.kept, 1)))
	m.set("predictor.warnings_per_kevent", "1/kevent", float64(lr.warnings)/(float64(n)/1000))
	m.set("predictor.build_ms", "ms", median(spanDurations(spans, "predictor.build"))/1e6)
	m.set("learner.prepare_ms", "ms", median(spanDurations(spans, "learner.prepare"))/1e6)
	m.set("incr.advance_ms", "ms", median(spanDurations(spans, "incr.advance"))/1e6)
	m.set("engine.train_step_ms", "ms", median(spanDurations(spans, "engine.train_step"))/1e6)
	m.set("train.copy_ms", "ms", median(spanDurations(spans, "train.copy"))/1e6)
	var learners, revise []float64
	rebuilds, kept, cands := 0, 0, 0
	for _, p := range lr.passes {
		l := time.Duration(0)
		for _, d := range p.LearnerDurations {
			l += d
		}
		learners = append(learners, float64(l)/1e6)
		revise = append(revise, float64(p.ReviseDuration)/1e6)
		if p.Incr != nil && p.Incr.Rebuild {
			rebuilds++
		}
		kept += p.RepoSize
		cands += p.RepoSize + p.Churn.RemovedByReviser
	}
	m.set("train.passes", "count", float64(len(lr.passes)))
	m.set("train.learners_ms", "ms", median(learners))
	m.set("train.revise_ms", "ms", median(revise))
	m.set("incr.rebuild_ratio", "ratio", float64(rebuilds)/float64(max(len(lr.passes), 1)))
	m.set("reviser.kept_ratio", "ratio", float64(kept)/float64(max(cands, 1)))
	if ds := spanDurations(spans, "persist.append"); len(ds) > 0 {
		m.set("persist.append_us_per_batch", "us", median(ds)/1e3)
		cw := spanDurations(spans, "persist.commit_wait")
		m.set("persist.commit_wait_p50_us", "us", percentile(cw, 0.50)/1e3)
		m.set("persist.commit_wait_p99_us", "us", percentile(cw, 0.99)/1e3)
	}
}

// persistProbe times the store's calls on the feed: batch appends and
// their commit waits (for a workload whose ledger has no WAL), the
// distribution of a single fsync, a snapshot of the trained state, and a
// full WAL replay. It returns the commit-wait p50 in µs.
func persistProbe(e *env, tr *tracer, root int, events []raslog.Event, tagged []preprocess.TaggedEvent, rules []learner.Rule, m metrics) (float64, error) {
	dir := filepath.Join(e.work, "persist-probe")
	defer os.RemoveAll(dir)
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return 0, err
	}
	if err := st.StartAppend(0); err != nil {
		st.Close()
		return 0, err
	}
	var appendNs, waitNs []float64
	var bytesOut int64
	seq := uint64(0)
	for lo := 0; lo < len(events); lo += maxBatch {
		b := events[lo:min(lo+maxBatch, len(events))]
		s := tr.begin("persist.append", root, int64(lo/maxBatch))
		n, t, err := st.AppendBatch(seq, b)
		tr.end(s)
		if err != nil {
			st.Close()
			return 0, err
		}
		bytesOut += int64(n)
		seq += uint64(len(b))
		s2 := tr.begin("persist.commit_wait", root, int64(lo/maxBatch))
		err = t.Wait(context.Background())
		tr.end(s2)
		if err != nil {
			st.Close()
			return 0, err
		}
		appendNs = append(appendNs, tr.took(s))
		waitNs = append(waitNs, tr.took(s2))
	}
	var fsyncNs []float64
	for i := 0; i < 1100; i++ { // ten samples beyond the p99
		if _, err := st.Append(seq, events[i%len(events)]); err != nil {
			st.Close()
			return 0, err
		}
		seq++
		s := tr.begin("persist.sync", root, int64(i))
		err := st.Sync()
		tr.end(s)
		if err != nil {
			st.Close()
			return 0, err
		}
		fsyncNs = append(fsyncNs, tr.took(s))
	}
	wire, err := persist.EncodeRules(rules)
	if err != nil {
		st.Close()
		return 0, err
	}
	snap := &persist.Snapshot{Seq: 0, Rules: wire, History: tagged}
	var snapNs []float64
	for i := 0; i < 3; i++ {
		s := tr.begin("persist.snapshot", root, int64(i))
		_, err := st.WriteSnapshot(snap)
		tr.end(s)
		if err != nil {
			st.Close()
			return 0, err
		}
		snapNs = append(snapNs, tr.took(s))
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	st, err = persist.Open(dir, persist.Options{})
	if err != nil {
		return 0, err
	}
	s := tr.begin("persist.replay", root, -1)
	replayed := 0
	_, err = st.Replay(0, func(uint64, raslog.Event) error { replayed++; return nil })
	tr.end(s)
	st.Close()
	if err != nil {
		return 0, err
	}
	if replayed != int(seq) {
		return 0, fmt.Errorf("replayed %d of %d logged events", replayed, seq)
	}
	m.set("persist.fsync_p50_us", "us", percentile(fsyncNs, 0.50)/1e3)
	m.set("persist.fsync_p99_us", "us", percentile(fsyncNs, 0.99)/1e3)
	m.set("persist.bytes_per_event", "B", float64(bytesOut)/float64(len(events)))
	m.set("persist.snapshot_ms", "ms", median(snapNs)/1e6)
	m.set("persist.replay_ms", "ms", tr.took(s)/1e6)
	if _, ok := m["persist.append_us_per_batch"]; !ok {
		m.set("persist.append_us_per_batch", "us", median(appendNs)/1e3)
		m.set("persist.commit_wait_p50_us", "us", percentile(waitNs, 0.50)/1e3)
		m.set("persist.commit_wait_p99_us", "us", percentile(waitNs, 0.99)/1e3)
	}
	return m["persist.commit_wait_p50_us"].Value, nil
}

// newService starts an in-process stream.Service with the workload's
// configuration.
func newService(w *workload, stateDir string) (*stream.Service, error) {
	cfg := w.streamConfig()
	cfg.StateDir = stateDir
	return stream.New(cfg)
}

// backpressureSum reads stream_ingest_backpressure_seconds_sum.
func backpressureSum(s *stream.Service) (float64, error) {
	var b bytes.Buffer
	if err := s.Metrics().WritePrometheus(&b); err != nil {
		return 0, err
	}
	m, err := obsv.ParseText(&b)
	if err != nil {
		return 0, err
	}
	return m["stream_ingest_backpressure_seconds_sum"], nil
}

// streamProbe drives an in-process stream.Service with the workload's
// configuration: the warm prefix closed-loop, then the nominal rung
// open-loop with the daemon's self-clocking batches, then
// one unpaced burst to read the admission wait. Latency is per batch,
// from its oldest event's due time to IngestBatch's return, as for the
// daemon's acks. It returns the in-process latency p50 in µs.
func streamProbe(e *env, w *workload, tr *tracer, root int, f *feed, dur time.Duration, m metrics) (float64, error) {
	dir := ""
	if w.durable {
		dir = filepath.Join(e.work, "stream-probe")
		defer os.RemoveAll(dir)
	}
	svc, err := newService(w, dir)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	ctx := context.Background()
	n := f.cursorAfter(0, w.prefixWeeks)
	for lo := int64(0); lo < n; lo += maxBatch {
		if _, err := svc.IngestBatch(ctx, f.events(lo, min(lo+maxBatch, n))); err != nil {
			return 0, err
		}
	}
	r := planRung(f, n, rungs[nominalRung], rungDur(nominalRung, dur))
	events := f.events(r.cursor, r.cursor+r.events())
	var lat []float64
	start := time.Now()
	for i := 0; i < len(events); {
		if d := time.Until(start.Add(r.dues[i])); d > 0 {
			time.Sleep(d)
		}
		j := nextBatch(r.dues, i, time.Since(start), maxBatch)
		s := tr.begin("stream.ingest_batch", root, int64(i))
		_, err := svc.IngestBatch(ctx, append([]raslog.Event(nil), events[i:j]...))
		tr.end(s)
		if err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(start)-r.dues[i])/1e3)
		i = j
	}
	p50 := percentile(lat, 0.50)
	m.set("stream.ingest_batch_p50_us", "us", p50)
	m.set("stream.ingest_batch_p99_us", "us", percentile(lat, 0.99))

	// Unpaced: single events through Ingest as fast as it returns, so
	// the sequencer queue fills and admission has to wait.
	bp0, err := backpressureSum(svc)
	if err != nil {
		return 0, err
	}
	cur := r.cursor + r.events()
	burst := int64(rungs[len(rungs)-1])
	t0 := time.Now()
	for c := cur; c < cur+burst; c++ {
		if err := svc.Ingest(ctx, f.at(c)); err != nil {
			return 0, err
		}
	}
	bp1, err := backpressureSum(svc)
	if err != nil {
		return 0, err
	}
	m.set("stream.unpaced_eps", "events/s", float64(burst)/time.Since(t0).Seconds())
	m.set("stream.admit_wait_s", "s", bp1-bp0)

	// Quiescence: whatever is acked but neither sequenced nor dropped is
	// sitting in the reorder buffer.
	var st stream.Stats
	for i := 0; i < 500; i++ {
		time.Sleep(10 * time.Millisecond)
		prev := st.Sequenced
		st = svc.Stats()
		if st.Sequenced == prev && !st.Retraining && st.Queues.Sequencer == 0 && st.Queues.Collector == 0 {
			break
		}
	}
	m.set("stream.acked_buffered", "count", float64(st.Ingested-st.Sequenced-st.LateDropped))
	return p50, nil
}

// recoverProbe feeds the warm prefix to a durable in-process service,
// copies its state directory while it runs (a crash image), and times
// stream.New on copies of that image.
func recoverProbe(e *env, w *workload, tr *tracer, root int, f *feed, m metrics) error {
	dir := filepath.Join(e.work, "recover-probe")
	defer os.RemoveAll(dir)
	svc, err := newService(w, dir)
	if err != nil {
		return err
	}
	n := f.cursorAfter(0, w.prefixWeeks)
	for lo := int64(0); lo < n; lo += maxBatch {
		if _, err := svc.IngestBatch(context.Background(), f.events(lo, min(lo+maxBatch, n))); err != nil {
			svc.Close()
			return err
		}
	}
	for i := 0; i < 500 && (svc.Stats().Retraining || svc.Stats().Queues.Collector > 0); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	image := dir + "-image"
	err = copyDir(dir, image)
	svc.Close()
	if err != nil {
		return err
	}
	defer os.RemoveAll(image)
	var took []float64
	for i := 0; i < 3; i++ {
		cp := fmt.Sprintf("%s-%d", image, i)
		if err := copyDir(image, cp); err != nil {
			return err
		}
		s := tr.begin("stream.recover", root, int64(i))
		rs, err := newService(w, cp)
		tr.end(s)
		if err != nil {
			return err
		}
		took = append(took, tr.took(s)/1e6)
		rs.Close()
		os.RemoveAll(cp)
	}
	m.set("stream.recover_ms", "ms", median(took))
	return nil
}

// trainProbe re-runs the last training pass of the ledger replay with
// one worker and with the default parallelism, and runs engine.Run (the
// batch path) over the replay's filtered events.
func trainProbe(tr *tracer, root int, lr *ledgerRun, m metrics) error {
	if len(lr.lastSlice) == 0 {
		return fmt.Errorf("the replay never trained")
	}
	params := learner.Params{WindowSec: 300}
	timeStep := func(par int) (float64, error) {
		var ds []float64
		for i := 0; i < 3; i++ {
			ml := meta.New().SetParallelism(par)
			pre := learner.Prepare(lr.lastSlice)
			s := tr.begin("engine.train_step", root, int64(par))
			_, err := engine.TrainStepPrepared(ml, meta.NewRepository(), pre, params)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			ds = append(ds, tr.took(s))
		}
		return median(ds), nil
	}
	serial, err := timeStep(1)
	if err != nil {
		return err
	}
	def, err := timeStep(0)
	if err != nil {
		return err
	}
	m.set("train.parallel_speedup", "ratio", serial/def)

	start := lr.tagged[0].Time
	weeks := int((lr.tagged[len(lr.tagged)-1].Time-start)/raslog.MillisPerWeek) + 1
	cfg := engine.Defaults()
	cfg.Params = params
	cfg.InitialTrainWeeks, cfg.TrainWeeks, cfg.RetrainWeeks = replayTrain, replayTrain, replayRetrain
	s := tr.begin("engine.run", root, -1)
	_, err = engine.Run(lr.tagged, start, weeks, cfg)
	tr.end(s)
	if err != nil {
		return err
	}
	m.set("engine.run_ms", "ms", tr.took(s)/1e6)
	return nil
}
