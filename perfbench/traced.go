package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/answer"
	"repro/internal/bench"
	"repro/internal/embed"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/prompts"
	"repro/internal/serve"
	"repro/internal/substrate"
	"repro/internal/vecstore"
	"repro/internal/world"
)

// traceAgg collects the per-stage spans the server puts in traced
// answers, and their LLM usage.
type traceAgg struct {
	stages       map[string][]float64 // µs
	unattributed []float64            // µs
	answers      int
	llmCalls     int
	tokens       int
}

func newTraceAgg() *traceAgg { return &traceAgg{stages: map[string][]float64{}} }

// add takes one answer whose request asked for a trace. A cache hit runs
// no stage, so all of its time is unattributed.
func (t *traceAgg) add(out *outcome) {
	if out.resp.Trace == nil {
		return
	}
	t.answers++
	t.llmCalls += out.resp.LLMCalls
	t.tokens += out.resp.PromptTokens + out.resp.CompletionTokens
	var spans float64
	if out.cache != "hit" {
		for _, sp := range out.resp.Trace.Stages {
			t.stages[sp.Stage] = append(t.stages[sp.Stage], sp.LatencyMS*1000)
			spans += sp.LatencyMS * 1000
		}
	}
	t.unattributed = append(t.unattributed, ms(out.latency)*1000-spans)
}

// perAnswer divides a count by the traced answers.
func (t *traceAgg) perAnswer(n int) float64 {
	if t.answers == 0 {
		return 0
	}
	return float64(n) / float64(t.answers)
}

// binaryLayers are the per-layer figures the traced run reads from the
// server: its spans, its usage counts and its /v1/metrics counters over
// the timed phase.
func (r *runner) binaryLayers() map[string]metric {
	t := r.trace
	var compactions int64
	for _, st := range r.m1.Substrates {
		compactions += st.Compactions
	}
	hits, misses := r.m1.Cache.Hits-r.m0.Cache.Hits, r.m1.Cache.Misses-r.m0.Cache.Misses
	mh, mm := r.m1.EmbedMemo.Hits-r.m0.EmbedMemo.Hits, r.m1.EmbedMemo.Misses-r.m0.EmbedMemo.Misses
	return map[string]metric{
		"pgakvd.unattributed_p50_us": {percentile(t.unattributed, 50), "us"},
		"serve.cache_hit_pct":        {pct(float64(hits), float64(hits+misses)), "%"},
		"core.pseudo_graph_p50_us":   {percentile(t.stages["pseudo-graph"], 50), "us"},
		"core.retrieve_prune_p50_us": {percentile(t.stages["retrieve-prune"], 50), "us"},
		"core.verify_p50_us":         {percentile(t.stages["verify"], 50), "us"},
		"core.answer_p50_us":         {percentile(t.stages["answer"], 50), "us"},
		"embed.memo_hit_pct":         {pct(float64(mh), float64(mh+mm)), "%"},
		"llm.calls_per_answer":       {t.perAnswer(t.llmCalls), "count"},
		"llm.tokens_per_answer":      {t.perAnswer(t.tokens), "count"},
		"substrate.compactions":      {float64(compactions), "count"},
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timings is a goroutine-safe list of durations in µs.
type timings struct {
	mu sync.Mutex
	xs []float64
	n  int // items the timed calls covered (queries for searches)
}

func (t *timings) add(d time.Duration, items int) {
	t.mu.Lock()
	t.xs = append(t.xs, us(d))
	t.n += items
	t.mu.Unlock()
}

func (t *timings) p50() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return percentile(t.xs, 50)
}

// timedClient times every Complete call of the client it wraps.
type timedClient struct {
	inner llm.Client
	t     *timings
}

func (c *timedClient) Name() string { return c.inner.Name() }

func (c *timedClient) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	start := time.Now()
	resp, err := c.inner.Complete(ctx, req)
	c.t.add(time.Since(start), 1)
	return resp, err
}

// timedSubstrate hands the pipeline the manager's live snapshot with its
// index wrapped in a timedSearcher.
type timedSubstrate struct {
	mgr *substrate.Manager
	t   *timings
}

func (s *timedSubstrate) Resolve() (kg.Reader, vecstore.Searcher, uint64) {
	store, idx, epoch := s.mgr.Resolve()
	return store, &timedSearcher{Searcher: idx, t: s.t}, epoch
}

// timedSearcher times each search call and counts the queries in it.
type timedSearcher struct {
	vecstore.Searcher
	t *timings
}

func (s *timedSearcher) Search(q string, k int) []vecstore.Hit {
	start := time.Now()
	defer func() { s.t.add(time.Since(start), 1) }()
	return s.Searcher.Search(q, k)
}

func (s *timedSearcher) SearchPreEncoded(q string, qv embed.Vector, k int) []vecstore.Hit {
	start := time.Now()
	defer func() { s.t.add(time.Since(start), 1) }()
	return s.Searcher.SearchPreEncoded(q, qv, k)
}

func (s *timedSearcher) BatchSearch(qs []string, k int) [][]vecstore.Hit {
	start := time.Now()
	defer func() { s.t.add(time.Since(start), len(qs)) }()
	return s.Searcher.BatchSearch(qs, k)
}

func (s *timedSearcher) BatchSearchWith(enc func(string) embed.Vector, qs []string, k int) [][]vecstore.Hit {
	start := time.Now()
	defer func() { s.t.add(time.Since(start), len(qs)) }()
	return s.Searcher.BatchSearchWith(enc, qs, k)
}

// modelLabel maps wire model labels onto the bench model table.
func modelLabel(wire string) string {
	if wire == "gpt4" {
		return bench.ModelGPT4
	}
	return bench.ModelGPT35
}

// envConfig is the environment pgakvd's run() assembles from the
// workload's flags, with two differences the in-process replay needs:
// the answer cache is always on, because serve.stack_hit_p50_us times
// hits through Env.Answerer (every pipeline timing goes through uncached
// answerers), and auto-compaction is off, because the replay calls
// Manager.Compact itself at the same threshold so it can time the call.
func envConfig(workload, dataDir string) bench.EnvConfig {
	cfg := bench.DefaultEnvConfig()
	cfg.LLMConcurrency = 32
	cfg.Cache = serve.CacheConfig{Size: 4096, TTL: 5 * time.Minute}
	cfg.Prompts = prompts.NewRegistry()
	if workload == wlIngestAsk {
		cfg.Substrate.Durability = substrate.Durability{Dir: dataDir, Fsync: substrate.SyncNever}
	}
	return cfg
}

// inProcess replays the workload's sequence over a bench.Env in this
// process and times the public calls of each layer.
type inProcess struct {
	cfg  runConfig
	fx   *fixtures
	env  *bench.Env
	ans  map[string]answer.Answerer // uncached ours per model/source
	llm  timings
	srch timings
	ing  timings
	comp timings

	answers     int
	replayOps   int                    // answers and ingests inside the allocation window
	pseudo      map[kg.Source][]string // Gp triple texts, per source
	suitePseudo map[kg.Source][]string // those of suite questions
	mallocs     uint64
	allocBytes  uint64
	generateS   float64
	renderS     float64
	recoverS    float64
	stackHitP50 float64
}

func (p *inProcess) dataDir(name string) string {
	return filepath.Join(p.cfg.buildDir, fmt.Sprintf("%s-%d", name, os.Getpid()))
}

// medianSeconds runs f n times and returns the median wall time.
func medianSeconds(n int, f func() error) (float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// setUp times world generation, rendering and substrate recovery, then
// builds the environment and the wrapped answerers.
func (p *inProcess) setUp() error {
	base := bench.DefaultEnvConfig()
	base.World.Seed = base.WorldSeed
	var w *world.World
	var err error
	if p.generateS, err = medianSeconds(3, func() error {
		w, err = world.Generate(base.World)
		return err
	}); err != nil {
		return err
	}
	var stores map[kg.Source]*kg.Store
	if p.renderS, err = medianSeconds(3, func() error {
		stores = map[kg.Source]*kg.Store{
			kg.SourceWikidata: world.WikidataSchema().Render(w),
			kg.SourceFreebase: world.FreebaseSchema().Render(w),
		}
		return nil
	}); err != nil {
		return err
	}
	recCfg := envConfig(p.cfg.workload, p.dataDir("recover")).Substrate
	defer os.RemoveAll(p.dataDir("recover"))
	enc := embed.NewEncoder()
	for _, src := range sources {
		start := time.Now()
		mgr, err := substrate.Recover(enc, stores[src], recCfg)
		if err != nil {
			return err
		}
		p.recoverS += time.Since(start).Seconds()
		if err := mgr.Close(); err != nil {
			return err
		}
	}

	p.env, err = bench.NewEnv(envConfig(p.cfg.workload, p.dataDir("env")))
	if err != nil {
		return err
	}
	p.ans = map[string]answer.Answerer{}
	for _, m := range models {
		for _, src := range sources {
			a, err := answer.New("ours", answer.Deps{
				Client:    &timedClient{inner: p.env.Clients[modelLabel(m)], t: &p.llm},
				Substrate: &timedSubstrate{mgr: p.env.Substrates[src], t: &p.srch},
				Encoder:   p.env.Enc,
				Prompts:   p.env.Prompts,
			}, answer.WithCoreConfig(p.env.Cfg.Core), answer.WithModelLabel(modelLabel(m)))
			if err != nil {
				return err
			}
			p.ans[m+"/"+src.String()] = a
		}
	}
	return nil
}

func (p *inProcess) close() {
	if p.env != nil {
		_ = p.env.Close()
	}
	_ = os.RemoveAll(p.dataDir("env"))
}

// answerAll answers ops one at a time through the wrapped answerers and
// keeps the pseudo-graph triples each run produced.
func (p *inProcess) answerAll(ctx context.Context, ops []*op) error {
	for _, o := range ops {
		src, err := kg.ParseSource(o.KG)
		if err != nil {
			return err
		}
		res, err := p.ans[o.Model+"/"+o.KG].Answer(ctx, answer.Query{Text: o.Question, Method: "ours", Model: modelLabel(o.Model), Open: o.Open})
		if err != nil {
			return fmt.Errorf("in process: %q: %w", o.Question, err)
		}
		p.answers++
		if res.Trace != nil && res.Trace.Gp != nil {
			for _, t := range res.Trace.Gp.Triples {
				p.pseudo[src] = append(p.pseudo[src], t.Text())
				if !o.Fresh {
					p.suitePseudo[src] = append(p.suitePseudo[src], t.Text())
				}
			}
		}
	}
	return nil
}

// ingest applies one round's batch, timing Manager.Ingest, and compacts
// when the delta reaches the threshold, timing Manager.Compact.
func (p *inProcess) ingest(ctx context.Context, rd ingestRound, threshold int) error {
	mgr := p.env.Substrates[rd.Source]
	triples := make([]kg.Triple, len(rd.Facts))
	for i, f := range rd.Facts {
		triples[i] = f.Triple
	}
	start := time.Now()
	res, err := mgr.Ingest(triples)
	p.ing.add(time.Since(start), 1)
	if err != nil {
		return err
	}
	if threshold > 0 && res.DeltaTriples >= threshold {
		return p.compact(ctx, mgr)
	}
	return nil
}

func (p *inProcess) compact(ctx context.Context, mgr *substrate.Manager) error {
	start := time.Now()
	_, err := mgr.Compact(ctx)
	p.comp.add(time.Since(start), 1)
	return err
}

// replay runs the workload's answer and ingest sequence with allocation
// counting around it.
func (p *inProcess) replay(ctx context.Context) error {
	p.pseudo = map[kg.Source][]string{}
	p.suitePseudo = map[kg.Source][]string{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	switch p.cfg.workload {
	case wlAskCold:
		if err := p.answerAll(ctx, p.fx.coldRound(p.cfg.seed)); err != nil {
			return err
		}
	case wlIngestAsk:
		for _, rd := range p.fx.ingestAskPlan(p.cfg.seed, ingestAskCycles(p.cfg.seconds, p.cfg.traced)) {
			if err := p.ingest(ctx, rd, compactThreshold); err != nil {
				return err
			}
			if err := p.answerAll(ctx, rd.Asks); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.replayOps = p.answers + len(p.ing.xs)

	if p.cfg.workload != wlIngestAsk {
		// The probe's ingests, then one compaction of each source, so the
		// write path is timed on every workload.
		for _, rd := range p.fx.probePlan(p.cfg.seed) {
			if err := p.ingest(ctx, rd, 0); err != nil {
				return err
			}
		}
		for _, src := range sources {
			if err := p.compact(ctx, p.env.Substrates[src]); err != nil {
				return err
			}
		}
	}
	return nil
}

// stackHits times answers served from the answer cache through the
// environment's full serving stack: each question of a sample is
// answered once to fill the cache, then repeatedly.
func (p *inProcess) stackHits(ctx context.Context) error {
	var sample []*op
	round := p.fx.coldRound(p.cfg.seed)[:64]
	for i := 0; i < 32; i++ {
		sample = append(sample, round...)
	}
	var hits timings
	seen := map[*op]bool{}
	for _, o := range sample {
		src, err := kg.ParseSource(o.KG)
		if err != nil {
			return err
		}
		a, err := p.env.Answerer("ours", modelLabel(o.Model), src)
		if err != nil {
			return err
		}
		q := answer.Query{Text: o.Question, Method: "ours", Model: modelLabel(o.Model), Open: o.Open}
		if !seen[o] {
			seen[o] = true
			if _, err := a.Answer(ctx, q); err != nil {
				return err
			}
			continue
		}
		start := time.Now()
		_, err = a.Answer(ctx, q)
		hits.add(time.Since(start), 1)
		if err != nil {
			return err
		}
	}
	p.stackHitP50 = hits.p50()
	return nil
}

// encodeP50 times Encoder.Encode on the pseudo-graph triples the replay
// produced.
func (p *inProcess) encodeP50() float64 {
	var t timings
	for _, src := range sources {
		for _, text := range capped(p.pseudo[src], 2000) {
			start := time.Now()
			_ = p.env.Enc.Encode(text)
			t.add(time.Since(start), 1)
		}
	}
	return t.p50()
}

func capped(xs []string, n int) []string {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

// annLayer times vecstore.BuildHNSW over each source's boot base and
// searches the hybrid index the substrate composes from that graph and
// the base's segments (the -ann boot snapshot's index), against its own
// exact scan. It runs on every workload. The queries are the distinct
// pseudo-triples of the suite questions the replay answered, in sorted
// order, so they do not depend on the seed.
func (p *inProcess) annLayer() (buildS, searchP50, recall float64) {
	var search timings
	var found, want int
	for _, src := range sources {
		base := p.env.Stores[src].All()
		start := time.Now()
		graph := vecstore.BuildHNSW(p.env.Enc, base, vecstore.HNSWConfig{})
		buildS += time.Since(start).Seconds()
		hy := vecstore.ComposeHybrid(p.env.Enc, graph, vecstore.BuildShards(p.env.Enc, base, 0), vecstore.HybridOptions{})
		for _, q := range capped(sortedUnique(p.suitePseudo[src]), 1000) {
			start := time.Now()
			got := hy.Search(q, 10)
			search.add(time.Since(start), 1)
			exact := hy.SearchExact(q, 10)
			if len(exact) == 0 {
				continue
			}
			// Ties at the k-th score make the exact top-k one of several
			// equally correct answers, so a hit counts when it is in the
			// exact top-k or scores at least its k-th score (to within the
			// rounding of the two search paths' arithmetic).
			in := map[string]bool{}
			for _, h := range exact {
				in[h.Triple.String()] = true
			}
			kth := exact[len(exact)-1].Score
			hit := 0
			for _, h := range got {
				if in[h.Triple.String()] || h.Score >= kth-1e-6 {
					hit++
				}
			}
			found += min(hit, len(exact))
			want += len(exact)
		}
	}
	if want > 0 {
		recall = float64(found) / float64(want)
	}
	return buildS, search.p50(), recall
}

func sortedUnique(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// layers runs the in-process part of the traced run.
func (p *inProcess) layers(ctx context.Context) (map[string]metric, error) {
	if err := p.setUp(); err != nil {
		return nil, err
	}
	defer p.close()
	if err := p.replay(ctx); err != nil {
		return nil, err
	}
	if err := p.stackHits(ctx); err != nil {
		return nil, err
	}
	buildS, hybridP50, recall := p.annLayer()
	n := float64(max(p.answers, 1))
	ops := float64(max(p.replayOps, 1))
	return map[string]metric{
		"serve.stack_hit_p50_us":        {p.stackHitP50, "us"},
		"vecstore.search_p50_us":        {p.srch.p50(), "us"},
		"vecstore.searches_per_answer":  {float64(p.srch.n) / n, "count"},
		"vecstore.hybrid_search_p50_us": {hybridP50, "us"},
		"vecstore.hnsw_build_s":         {buildS, "s"},
		"vecstore.ann_recall_at10":      {recall, "ratio"},
		"embed.encode_p50_us":           {p.encodeP50(), "us"},
		"llm.complete_p50_us":           {p.llm.p50(), "us"},
		"substrate.ingest_p50_us":       {p.ing.p50(), "us"},
		"substrate.compact_s":           {p.comp.p50() / 1e6, "s"},
		"substrate.recover_s":           {p.recoverS, "s"},
		"world.generate_s":              {p.generateS, "s"},
		"world.render_s":                {p.renderS, "s"},
		"runtime.allocs_per_op":         {float64(p.mallocs) / ops, "count"},
		"runtime.alloc_kb_per_op":       {float64(p.allocBytes) / 1024 / ops, "KB"},
	}, nil
}
