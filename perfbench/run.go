package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// Output checks from the paper: ours must beat the io baseline by at
// least its smallest reported gains.
const (
	minHit1Gain  = 7.5
	minRougeGain = 11.5
	// minTail is how many timed answers a run needs for its p99 to be a
	// tail rather than a maximum.
	minTail = 1000
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	root     string // repository root
	buildDir string // build outputs and scratch data
	bin      string // built pgakvd
	workload string
	seed     int64
	seconds  int
	traced   bool
}

// serverArgs are the pgakvd flags of each workload.
func serverArgs(workload string) []string {
	switch workload {
	case wlAskCold:
		return []string{"-cache-size", "0"}
	case wlIngestAsk:
		return []string{"-fsync", "never", "-compact-threshold", fmt.Sprint(compactThreshold)}
	}
	return nil
}

// boots is how many times a run boots the server before and after the
// workload's traffic; setup_s is the median of all of them. The last boot
// before serves the workload, and on ask-cold the first serves the
// freshness probe. Booting on both sides of a run of tens of seconds
// lets the median span the host's state over the run rather than one
// moment of it. A traced run boots only for its traffic.
func boots(workload string, traced bool) (before, after int) {
	before, after = 8, 8
	if traced {
		before, after = 1, 0
	}
	if workload == wlAskCold {
		before++
	}
	return before, after
}

// quality accumulates Hit@1 over precise answers and ROUGE-L over open
// ones, scored against golds and references the benchmark owns.
type quality struct {
	hit, rouge   float64
	nHit, nRouge int
}

func (q *quality) add(o *op, answer string) (hit bool) {
	if o.Open {
		q.rouge += metrics.RougeLMulti(answer, o.Refs)
		q.nRouge++
		return false
	}
	h := metrics.Hit1(answer, o.Golds)
	q.hit += h
	q.nHit++
	return h > 0
}

func (q *quality) hit1Pct() float64 { return pct(q.hit, float64(q.nHit)) }
func (q *quality) rougeL() float64  { return pct(q.rouge, float64(q.nRouge)) }

func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// runner holds one run's server, books and measurements.
type runner struct {
	cfg   runConfig
	fx    *fixtures
	srv   *server
	cl    *client
	conns int

	attempted, failed int
	problems          []string

	// epoch[conn][kg] is the last epoch an answer on that connection
	// reported; floor[kg] the epoch the last ingest into kg returned.
	epoch map[int]map[string]uint64
	floor map[string]uint64

	// Timed phase.
	elapsed  time.Duration
	cpu      float64 // server CPU seconds
	lat      []float64
	answered int
	ingests  int
	suite    quality
	m0, m1   serverMetrics

	// Ingest latencies (timed phase on ingest-ask, the probe on
	// ask-cold) and fresh-fact answers.
	ingestLat []float64
	fresh     quality

	setupS float64
	peakMB float64
	trace  *traceAgg // nil unless traced
}

func (r *runner) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// record books one answer request: the failure check and the
// epoch checks. It reports whether the answer can be scored.
func (r *runner) record(o *op, out *outcome) bool {
	r.attempted++
	if out.failed() {
		r.failed++
		r.fail("%s %s on %s: %q: %s", o.Method, o.Model, o.KG, o.Question, out.describe())
		return false
	}
	conn := r.epoch[out.conn]
	if conn == nil {
		conn = map[string]uint64{}
		r.epoch[out.conn] = conn
	}
	if e := out.resp.Epoch; e < conn[o.KG] {
		r.fail("epoch went back on connection %d, %s: %d after %d", out.conn, o.KG, e, conn[o.KG])
	} else {
		conn[o.KG] = e
	}
	if out.resp.Epoch < r.floor[o.KG] {
		r.fail("answer on %s at epoch %d, below the last ingest's epoch %d", o.KG, out.resp.Epoch, r.floor[o.KG])
	}
	if r.trace != nil {
		r.trace.add(out)
	}
	return true
}

// ingest sends one batch and checks that every fact was new and that the
// source's epoch went up.
func (r *runner) ingest(rd ingestRound, body []byte) (ingestResp, bool) {
	r.attempted++
	resp, lat, err := r.cl.ingest(body)
	if err == nil && resp.Added != len(rd.Facts) {
		err = fmt.Errorf("added %d of %d fresh facts", resp.Added, len(rd.Facts))
	}
	src := rd.Source.String()
	if err == nil && resp.Epoch <= r.floor[src] {
		err = fmt.Errorf("epoch %d after an ingest at %d", resp.Epoch, r.floor[src])
	}
	if err != nil {
		r.failed++
		r.fail("ingest into %s: %v", src, err)
		return resp, false
	}
	r.floor[src] = resp.Epoch
	r.ingestLat = append(r.ingestLat, ms(lat))
	return resp, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func bodiesOf(ops []*op, traced bool) [][]byte {
	b := make([][]byte, len(ops))
	for i, o := range ops {
		b[i] = o.body(traced)
	}
	return b
}

// startTimed and stopTimed bracket the timed phase with server CPU
// readings and, on traced runs, metrics scrapes.
func (r *runner) startTimed() (time.Time, error) {
	if r.trace != nil {
		m, err := r.cl.metrics()
		if err != nil {
			return time.Time{}, err
		}
		r.m0 = m
	}
	cpu, err := procCPUSeconds(r.srv.pid())
	r.cpu = -cpu
	return time.Now(), err
}

func (r *runner) stopTimed(start time.Time) error {
	r.elapsed = time.Since(start)
	cpu, err := procCPUSeconds(r.srv.pid())
	if err != nil {
		return err
	}
	r.cpu += cpu
	if r.trace != nil {
		m, err := r.cl.metrics()
		if err != nil {
			return err
		}
		r.m1 = m
	}
	return nil
}

// tracedRounds is how many timed rounds a traced run makes: a fixed
// count, so that its operation count does not depend on speed.
const tracedRounds = 2

// timedDone reports whether the timed phase is over after n rounds: when
// --seconds have passed, or on traced runs after tracedRounds.
func (r *runner) timedDone(start time.Time, n int) bool {
	if r.cfg.traced {
		return n >= tracedRounds
	}
	return time.Since(start) >= time.Duration(r.cfg.seconds)*time.Second
}

// timedAnswers records a timed round's outcomes.
func (r *runner) timedAnswers(ops []*op, outs []outcome) {
	for i := range outs {
		out := &outs[i]
		if !r.record(ops[i], out) {
			continue
		}
		r.lat = append(r.lat, ms(out.latency))
		r.answered++
		r.suite.add(ops[i], out.resp.Answer)
	}
}

// runCold is ask-cold: a warm-up round, then timed rounds of
// the whole suite with both models until --seconds have passed, then the
// io baseline over one round and the freshness probe.
func (r *runner) runCold(ctx context.Context) error {
	round := r.fx.coldRound(r.cfg.seed)
	bodies := bodiesOf(round, r.cfg.traced)
	for i, out := range r.cl.runParallel(bodies, r.conns) {
		r.record(round[i], &out)
	}
	start, err := r.startTimed()
	if err != nil {
		return err
	}
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.timedAnswers(round, r.cl.runParallel(bodies, r.conns))
		if r.timedDone(start, n) {
			break
		}
	}
	if err := r.stopTimed(start); err != nil {
		return err
	}

	var io quality
	ioOps := make([]*op, len(round))
	for i, o := range round {
		ioOps[i] = o.withMethod("io")
	}
	for i, out := range r.cl.runParallel(bodiesOf(ioOps, false), r.conns) {
		if r.record(ioOps[i], &out) {
			io.add(ioOps[i], out.resp.Answer)
		}
	}
	if gain := r.suite.hit1Pct() - io.hit1Pct(); gain < minHit1Gain {
		r.fail("ours leads io by %.2f points of Hit@1 (%.2f vs %.2f), below the paper's %.1f", gain, r.suite.hit1Pct(), io.hit1Pct(), minHit1Gain)
	}
	if gain := r.suite.rougeL() - io.rougeL(); gain < minRougeGain {
		r.fail("ours leads io by %.2f ROUGE-L (%.2f vs %.2f), below the paper's %.1f", gain, r.suite.rougeL(), io.rougeL(), minRougeGain)
	}
	return nil
}

// probe ingests batches of fresh facts and asks about every fact of a
// batch before the next ingest. It gives ask-cold its ingest latency and
// freshness figures, on a server of its own (see execute).
// Spreading the ingests over the questions' few seconds, rather than
// sending them back to back in a fraction of a second, keeps one host
// stall from setting their median.
func (r *runner) probe(ctx context.Context) error {
	for _, rd := range r.fx.probePlan(r.cfg.seed) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, ok := r.ingest(rd, ingestBody(rd.Source, rd.Facts)); !ok {
			continue
		}
		for i, out := range r.cl.runParallel(bodiesOf(rd.Asks, false), r.conns) {
			if r.record(rd.Asks[i], &out) {
				r.fresh.add(rd.Asks[i], out.resp.Answer)
			}
		}
	}
	return nil
}

// runIngestAsk is ingest-ask: one connection runs the fixed plan, waiting
// out every compaction an ingest starts, then ours-gp answers a sample of
// the fresh questions outside the timed phase.
func (r *runner) runIngestAsk(ctx context.Context) error {
	plan := r.fx.ingestAskPlan(r.cfg.seed, ingestAskCycles(r.cfg.seconds, r.cfg.traced))
	ingestBodies := make([][]byte, len(plan))
	askBodies := make([][][]byte, len(plan))
	for i, rd := range plan {
		ingestBodies[i] = ingestBody(rd.Source, rd.Facts)
		askBodies[i] = bodiesOf(rd.Asks, r.cfg.traced)
	}
	m, err := r.cl.metrics()
	if err != nil {
		return err
	}
	compacted := map[string]int64{}
	for src, st := range m.Substrates {
		compacted[src] = st.Durability.Checkpoints
	}

	var freshOps []*op
	var freshHits []bool
	start, err := r.startTimed()
	if err != nil {
		return err
	}
	for i, rd := range plan {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, ok := r.ingest(rd, ingestBodies[i])
		if !ok {
			continue
		}
		r.ingests++
		if resp.DeltaTriples >= compactThreshold {
			src := rd.Source.String()
			compacted[src]++
			if err := r.awaitCompaction(ctx, src, compacted[src]); err != nil {
				return err
			}
		}
		outs := r.cl.runParallel(askBodies[i], 1)
		for j := range outs {
			o, out := rd.Asks[j], &outs[j]
			if !r.record(o, out) {
				continue
			}
			r.lat = append(r.lat, ms(out.latency))
			r.answered++
			if o.Fresh {
				freshOps = append(freshOps, o)
				freshHits = append(freshHits, r.fresh.add(o, out.resp.Answer))
			} else {
				r.suite.add(o, out.resp.Answer)
			}
		}
	}
	if err := r.stopTimed(start); err != nil {
		return err
	}

	n := min(gpSample, len(freshOps))
	gpOps := make([]*op, n)
	oursHits := 0
	for i := range gpOps {
		gpOps[i] = freshOps[i].withMethod("ours-gp")
		if freshHits[i] {
			oursHits++
		}
	}
	gpHits := 0
	for i, out := range r.cl.runParallel(bodiesOf(gpOps, false), 1) {
		if r.record(gpOps[i], &out) && metrics.Hit1(out.resp.Answer, gpOps[i].Golds) > 0 {
			gpHits++
		}
	}
	if gpHits != 0 {
		r.fail("ours-gp answered %d of %d fresh questions correctly; it cannot see the KG", gpHits, n)
	}
	if oursHits <= gpHits {
		r.fail("ours answered %d of %d fresh questions, no more than ours-gp's %d", oursHits, n, gpHits)
	}
	return nil
}

// awaitCompaction waits until src has finished its n-th compaction since
// the timed phase began, checkpoint included, so every run reaches the
// same epochs at the same point of the plan.
func (r *runner) awaitCompaction(ctx context.Context, src string, checkpoints int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := r.cl.metrics()
		if err != nil {
			return err
		}
		if m.Substrates[src].Durability.Checkpoints >= checkpoints {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("compaction of %s did not finish within 60s", src)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// execute boots the server, runs the workload's traffic and boots it
// again for set-up times (see boots). On ask-cold the first boot serves
// the freshness probe and is then stopped: a freshly booted heap makes its ingest latencies repeat from
// run to run, and the probe's ingests stay out of the workload's KG.
func (r *runner) execute(ctx context.Context) error {
	var fresh func() ([]string, error)
	if r.cfg.workload == wlIngestAsk {
		n := 0
		fresh = func() ([]string, error) {
			n++
			dir := filepath.Join(r.cfg.buildDir, fmt.Sprintf("data-%d-%d", os.Getpid(), n))
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			return []string{"-data-dir", dir}, nil
		}
		defer func() {
			for i := 1; i <= n; i++ {
				_ = os.RemoveAll(filepath.Join(r.cfg.buildDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i)))
			}
		}()
	}
	args := serverArgs(r.cfg.workload)
	n, after := boots(r.cfg.workload, r.cfg.traced)
	var setups []float64
	if r.cfg.workload == wlAskCold {
		srv, times, err := boot(ctx, r.cfg.bin, args, 1, nil)
		if err != nil {
			return err
		}
		setups = times
		r.srv, r.cl = srv, newClient(srv.base, r.conns)
		err = r.probe(ctx)
		r.cl.close()
		srv.stop()
		if err != nil {
			return err
		}
		// The workload's server starts its epochs afresh.
		r.epoch, r.floor = map[int]map[string]uint64{}, map[string]uint64{}
		n--
	}
	srv, times, err := boot(ctx, r.cfg.bin, args, n, fresh)
	if err != nil {
		return err
	}
	defer srv.stop()
	setups = append(setups, times...)
	r.srv = srv
	r.cl = newClient(srv.base, r.conns)
	defer r.cl.close()

	switch r.cfg.workload {
	case wlAskCold:
		err = r.runCold(ctx)
	case wlIngestAsk:
		err = r.runIngestAsk(ctx)
	}
	if err != nil {
		return err
	}
	if err := srv.exited(); err != nil {
		return err
	}
	if r.peakMB, err = procPeakRSSMB(srv.pid()); err != nil {
		return err
	}
	r.cl.close()
	srv.stop()
	if after > 0 {
		last, times, err := boot(ctx, r.cfg.bin, args, after, fresh)
		if err != nil {
			return err
		}
		last.stop()
		setups = append(setups, times...)
	}
	r.setupS = median(setups)
	return nil
}

// endToEnd is the run's end-to-end metrics, checked for sense.
func (r *runner) endToEnd() map[string]metric {
	if r.answered < minTail {
		r.fail("only %d timed answers; p99 needs at least %d", r.answered, minTail)
	}
	if r.fresh.nHit == 0 || len(r.ingestLat) == 0 {
		r.fail("no fresh questions or ingests were measured")
	}
	ops := r.answered + r.ingests
	return map[string]metric{
		"setup_s":        {r.setupS, "s"},
		"answer_rps":     {float64(r.answered) / r.elapsed.Seconds(), "req/s"},
		"answer_p50_ms":  {percentile(r.lat, 50), "ms"},
		"answer_p99_ms":  {percentile(r.lat, 99), "ms"},
		"cpu_ms_per_op":  {1000 * r.cpu / float64(max(ops, 1)), "ms"},
		"peak_rss_mb":    {r.peakMB, "MB"},
		"hit1_pct":       {r.suite.hit1Pct(), "%"},
		"rougeL":         {r.suite.rougeL(), "x100"},
		"ingest_p50_ms":  {percentile(r.ingestLat, 50), "ms"},
		"fresh_hit1_pct": {r.fresh.hit1Pct(), "%"},
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newRunner(cfg runConfig, fx *fixtures) *runner {
	conns := runtime.NumCPU()
	r := &runner{
		cfg:   cfg,
		fx:    fx,
		conns: conns,
		epoch: map[int]map[string]uint64{},
		floor: map[string]uint64{},
	}
	if cfg.traced {
		r.trace = newTraceAgg()
	}
	return r
}
