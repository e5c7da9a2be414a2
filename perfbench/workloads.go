package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/datasets"
	"repro/internal/kg"
	"repro/internal/qa"
	"repro/internal/world"
)

// Workload names.
const (
	wlAskCold   = "ask-cold"
	wlIngestAsk = "ingest-ask"
)

var workloadNames = []string{wlAskCold, wlIngestAsk}

// Shape of the generated traffic. The counts are fixed, never derived
// from timings, so two runs with one seed send identical requests.
const (
	// compactThreshold is passed to pgakvd on ingest-ask (it is also the
	// server default); the benchmark needs it to know when an ingest
	// starts a compaction it must wait for.
	compactThreshold = 2048
	// ingestBatch facts per ingest-ask ingest: one source's delta reaches
	// the threshold every compactThreshold/ingestBatch ingests into it,
	// so a cycle of cycleRounds rounds (sources alternate) compacts each
	// source exactly once.
	ingestBatch = 64
	cycleRounds = 2 * compactThreshold / ingestBatch
	// freshAsked of the previous round's facts are asked each round.
	freshAsked = 16
	// nominalCycleSeconds sizes ingest-ask: it runs an even number of
	// cycles, about --seconds/nominalCycleSeconds and at least two. A
	// cycle (about 1,900 answers and 64 ingests) took about 8 s on the
	// reference 2-vCPU host. Cycles alternate the model, so an even count
	// asks the suite with both models equally.
	nominalCycleSeconds = 8.0
	// gpSample is how many fresh questions ours-gp answers on ingest-ask.
	gpSample = 256

	// The freshness probe of ask-cold: probeRounds ingests of probeBatch
	// facts, each followed by questions about all of them.
	probeRounds = 48
	probeBatch  = 32
)

// models are the wire labels of the two simulated models.
var models = []string{"gpt3.5", "gpt4"}

// sources are the two KG sources, in the order ingests alternate.
var sources = []kg.Source{kg.SourceWikidata, kg.SourceFreebase}

// fixtures is the server's world and suite, rebuilt in process from the
// same default configuration pgakvd boots with, so golds and references
// come from internal/datasets rather than from the server.
type fixtures struct {
	world *world.World
	suite *datasets.Suite
	// taken holds every lower-cased name or value the world or either
	// rendered KG uses; fresh names must avoid all of them.
	taken map[string]bool
}

func loadFixtures() (*fixtures, error) {
	cfg := bench.DefaultEnvConfig()
	cfg.World.Seed = cfg.WorldSeed
	w, err := world.Generate(cfg.World)
	if err != nil {
		return nil, err
	}
	suite, err := datasets.Build(w, cfg.Data)
	if err != nil {
		return nil, err
	}
	taken := map[string]bool{}
	for _, e := range w.Entities {
		taken[strings.ToLower(e.Name)] = true
	}
	for _, f := range w.Facts {
		taken[strings.ToLower(f.Literal)] = true
	}
	for _, schema := range []*world.Schema{world.WikidataSchema(), world.FreebaseSchema()} {
		for _, t := range schema.Render(w).All() {
			taken[strings.ToLower(t.Subject)] = true
			taken[strings.ToLower(t.Object)] = true
		}
	}
	return &fixtures{world: w, suite: suite, taken: taken}, nil
}

// op is one /v1/answer request and what its answer is scored against.
type op struct {
	Method   string
	Model    string
	KG       string
	Question string
	Open     bool
	// Golds score precise answers by Hit@1, Refs open ones by ROUGE-L.
	Golds []string
	Refs  []string
	// Fresh marks a question about a fact this run ingested.
	Fresh bool
}

func (o *op) body(includeTrace bool) []byte {
	b, err := json.Marshal(struct {
		Question     string `json:"question"`
		Open         bool   `json:"open,omitempty"`
		Method       string `json:"method"`
		Model        string `json:"model"`
		KG           string `json:"kg"`
		IncludeTrace bool   `json:"include_trace,omitempty"`
	}{o.Question, o.Open, o.Method, o.Model, o.KG, includeTrace})
	if err != nil {
		panic(err) // plain strings and bools always marshal
	}
	return b
}

// withMethod returns a copy of o asked with another method.
func (o *op) withMethod(method string) *op {
	c := *o
	c.Method = method
	return &c
}

// suiteOp asks one suite question with ours against its own KG source.
func suiteOp(q qa.Question, model string) *op {
	return &op{
		Method:   "ours",
		Model:    model,
		KG:       q.SourceKG.String(),
		Question: q.Text,
		Open:     q.Open(),
		Golds:    q.Golds,
		Refs:     q.Refs,
	}
}

func (f *fixtures) suiteQuestions() []qa.Question {
	var qs []qa.Question
	for _, d := range f.suite.Datasets() {
		qs = append(qs, d.Questions...)
	}
	return qs
}

// coldRound is one round of ask-cold: every suite question
// with both models, in an order drawn from the seed.
func (f *fixtures) coldRound(seed int64) []*op {
	qs := f.suiteQuestions()
	var ops []*op
	for _, q := range qs {
		for _, m := range models {
			ops = append(ops, suiteOp(q, m))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// freshFact is one generated fact about a new entity, as ingested, and
// the question that asks for its object.
type freshFact struct {
	Triple   kg.Triple
	Question string
	Gold     string
}

// freshGen generates facts about new entities. Names are drawn from the
// seed and rejected if the world, either KG or an earlier fact already
// uses them. Relations cycle through every entity-valued relation with a
// lookup template, so each batch has the same relation mix whatever the
// seed; only the names vary.
type freshGen struct {
	rng  *rand.Rand
	fx   *fixtures
	used map[string]bool
	rels []world.RelKey
	next int
	tpls map[world.RelKey]qa.Template
}

func newFreshGen(fx *fixtures, seed int64) *freshGen {
	g := &freshGen{rng: rand.New(rand.NewSource(seed)), fx: fx, used: map[string]bool{}, tpls: map[world.RelKey]qa.Template{}}
	for _, r := range world.Relations {
		if r.ObjectLiteral {
			continue
		}
		// Objects are fresh names, which no model can guess; a literal
		// object such as a year could be guessed, and ours-gp, which never
		// reads the KG, must not be able to answer.
		if tpl, ok := qa.PrimaryLookupTemplate(r.Key); ok {
			g.rels = append(g.rels, r.Key)
			g.tpls[r.Key] = tpl
		}
	}
	return g
}

// Syllables for fresh names, mostly with onsets ('q', 'j', 'w', 'y', 'x')
// the world's namer never uses, so collisions are rare even before the
// check in name.
var (
	freshOnsets = []string{"q", "qu", "j", "w", "wr", "y", "z", "v", "k", "x"}
	freshVowels = []string{"a", "e", "i", "o", "u", "ae", "oi", "uo"}
	freshCodas  = []string{"", "x", "q", "lk", "mb", "nt", "rv", "z"}
)

func (g *freshGen) word() string {
	var b strings.Builder
	for i, n := 0, 2+g.rng.Intn(2); i < n; i++ {
		b.WriteString(freshOnsets[g.rng.Intn(len(freshOnsets))])
		b.WriteString(freshVowels[g.rng.Intn(len(freshVowels))])
		if i == n-1 {
			b.WriteString(freshCodas[g.rng.Intn(len(freshCodas))])
		}
	}
	w := b.String()
	return strings.ToUpper(w[:1]) + w[1:]
}

// name returns a two-word name that nothing else uses.
func (g *freshGen) name() string {
	for {
		n := g.word() + " " + g.word()
		key := strings.ToLower(n)
		if !g.used[key] && !g.fx.taken[key] {
			g.used[key] = true
			return n
		}
	}
}

// batch generates n facts rendered in src's schema.
func (g *freshGen) batch(src kg.Source, n int) []freshFact {
	schema, err := world.SchemaFor(src)
	if err != nil {
		panic(err) // sources lists only the two schemas world defines
	}
	out := make([]freshFact, n)
	for i := range out {
		rel := g.rels[g.next%len(g.rels)]
		g.next++
		subj, obj := g.name(), g.name()
		out[i] = freshFact{
			Triple: kg.Triple{
				Subject:  schema.EntitySurface(subj),
				Relation: schema.RelationLabel(rel),
				Object:   schema.EntitySurface(obj),
			},
			Question: g.tpls[rel].Render(subj, ""),
			Gold:     obj,
		}
	}
	return out
}

// freshOp asks ours about a generated fact on the source it went to.
func freshOp(f freshFact, src kg.Source, model string) *op {
	return &op{
		Method:   "ours",
		Model:    model,
		KG:       src.String(),
		Question: f.Question,
		Golds:    []string{f.Gold},
		Fresh:    true,
	}
}

// ingestRound is one round of ingest-ask, or of the freshness probe: an
// ingest, then questions. On ingest-ask the fresh questions ask about the
// previous round's facts, which went to the other source.
type ingestRound struct {
	Source kg.Source
	Facts  []freshFact
	Asks   []*op
}

// ingestAskCycles is how many compaction cycles ingest-ask runs for a
// --seconds budget. A traced run makes two, as it makes a fixed two
// rounds of the other workloads.
func ingestAskCycles(seconds int, traced bool) int {
	if traced {
		return 2
	}
	return 2 * max(1, int(math.Round(float64(seconds)/(2*nominalCycleSeconds))))
}

// ingestAskPlan is ingest-ask's whole request sequence. Every cycle
// walks the full suite once, in a seeded order, spread over its rounds;
// cycles alternate the model.
func (f *fixtures) ingestAskPlan(seed int64, cycles int) []ingestRound {
	rng := rand.New(rand.NewSource(seed))
	qs := f.suiteQuestions()
	perm := rng.Perm(len(qs))
	gen := newFreshGen(f, seed^0x5eed)
	rounds := make([]ingestRound, cycles*cycleRounds)
	for r := range rounds {
		src := sources[r%2]
		model := models[(r/cycleRounds)%2]
		rd := ingestRound{Source: src, Facts: gen.batch(src, ingestBatch)}
		if r > 0 {
			prev := rounds[r-1]
			for _, fact := range prev.Facts[:freshAsked] {
				rd.Asks = append(rd.Asks, freshOp(fact, prev.Source, model))
			}
		}
		j := r % cycleRounds
		for _, qi := range perm[j*len(qs)/cycleRounds : (j+1)*len(qs)/cycleRounds] {
			rd.Asks = append(rd.Asks, suiteOp(qs[qi], model))
		}
		rounds[r] = rd
	}
	return rounds
}

// probePlan is the freshness probe of ask-cold: each round
// ingests a batch and asks about all of it.
func (f *fixtures) probePlan(seed int64) []ingestRound {
	gen := newFreshGen(f, seed^0x9e0be)
	rounds := make([]ingestRound, probeRounds)
	for r := range rounds {
		src := sources[r%2]
		rd := ingestRound{Source: src, Facts: gen.batch(src, probeBatch)}
		for _, fact := range rd.Facts {
			rd.Asks = append(rd.Asks, freshOp(fact, src, models[0]))
		}
		rounds[r] = rd
	}
	return rounds
}

// ingestBody is the /v1/ingest request for a batch.
func ingestBody(src kg.Source, facts []freshFact) []byte {
	type tripleWire struct {
		Subject  string `json:"subject"`
		Relation string `json:"relation"`
		Object   string `json:"object"`
	}
	ts := make([]tripleWire, len(facts))
	for i, f := range facts {
		ts[i] = tripleWire{f.Triple.Subject, f.Triple.Relation, f.Triple.Object}
	}
	b, err := json.Marshal(struct {
		KG      string       `json:"kg"`
		Triples []tripleWire `json:"triples"`
	}{src.String(), ts})
	if err != nil {
		panic(err)
	}
	return b
}

func checkWorkload(name string) error {
	for _, w := range workloadNames {
		if w == name {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}
