package main

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/world"
)

var (
	fxOnce sync.Once
	fxVal  *fixtures
	fxErr  error
)

func testFixtures(t *testing.T) *fixtures {
	t.Helper()
	fxOnce.Do(func() { fxVal, fxErr = loadFixtures() })
	if fxErr != nil {
		t.Fatal(fxErr)
	}
	return fxVal
}

// requests flattens a plan into what the server would receive.
func requests(ops []*op) []string {
	out := make([]string, len(ops))
	for i, o := range ops {
		out[i] = string(o.body(false))
	}
	return out
}

func planRequests(rounds []ingestRound) []string {
	var out []string
	for _, rd := range rounds {
		out = append(out, string(ingestBody(rd.Source, rd.Facts)))
		out = append(out, requests(rd.Asks)...)
	}
	return out
}

func TestSequencesArePureFunctionsOfTheSeed(t *testing.T) {
	fx := testFixtures(t)
	gens := map[string]func(seed int64) []string{
		"ask-cold":   func(s int64) []string { return requests(fx.coldRound(s)) },
		"ingest-ask": func(s int64) []string { return planRequests(fx.ingestAskPlan(s, 1)) },
		"probe":      func(s int64) []string { return planRequests(fx.probePlan(s)) },
	}
	for name, gen := range gens {
		a, b, c := gen(3), gen(3), gen(4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two sequences from seed 3 differ", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 3 and 4 give the same sequence", name)
		}
	}
}

func TestSeedOnlyReordersScoredWork(t *testing.T) {
	// The quality figures of ask-cold are exact only if every seed sends
	// the same multiset of questions.
	fx := testFixtures(t)
	count := func(ops []*op) map[string]int {
		m := map[string]int{}
		for _, x := range requests(ops) {
			m[x]++
		}
		return m
	}
	if !reflect.DeepEqual(count(fx.coldRound(1)), count(fx.coldRound(2))) {
		t.Error("ask-cold: seeds 1 and 2 send different questions")
	}
}

func TestIngestAskCyclesCompactEachSourceOnce(t *testing.T) {
	fx := testFixtures(t)
	plan := fx.ingestAskPlan(1, 2)
	if len(plan) != 2*cycleRounds {
		t.Fatalf("%d rounds, want %d", len(plan), 2*cycleRounds)
	}
	facts := map[string]int{}
	suite := 0
	for r, rd := range plan {
		facts[rd.Source.String()] += len(rd.Facts)
		for _, o := range rd.Asks {
			if !o.Fresh {
				suite++
			}
		}
		if r == cycleRounds-1 {
			for src, n := range facts {
				if n != compactThreshold {
					t.Errorf("after one cycle %s holds %d fresh facts, want %d", src, n, compactThreshold)
				}
			}
			if want := len(fx.suiteQuestions()); suite != want {
				t.Errorf("one cycle asks %d suite questions, want the whole suite (%d)", suite, want)
			}
		}
	}
}

func TestFreshNamesNeverCollideWithTheWorld(t *testing.T) {
	fx := testFixtures(t)
	worldNames := map[string]bool{}
	for _, e := range fx.world.Entities {
		worldNames[strings.ToLower(e.Name)] = true
	}
	for _, schema := range []*world.Schema{world.WikidataSchema(), world.FreebaseSchema()} {
		for _, tr := range schema.Render(fx.world).All() {
			worldNames[strings.ToLower(tr.Subject)] = true
			worldNames[strings.ToLower(tr.Object)] = true
		}
	}
	for seed := int64(1); seed <= 10; seed++ {
		seen := map[string]bool{}
		rounds := append(fx.ingestAskPlan(seed, 1), fx.probePlan(seed)...)
		for _, rd := range rounds {
			for _, f := range rd.Facts {
				for _, name := range []string{f.Triple.Subject, f.Triple.Object} {
					key := strings.ToLower(name)
					if worldNames[key] {
						t.Errorf("seed %d: fresh name %q is a world name", seed, name)
					}
					if seen[key] {
						t.Errorf("seed %d: fresh name %q generated twice", seed, name)
					}
					seen[key] = true
				}
				if !strings.EqualFold(f.Gold, f.Triple.Object) {
					t.Errorf("gold %q is not the ingested object %q", f.Gold, f.Triple.Object)
				}
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Errorf("single sample p99 = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9.0, 4.0, 2.0}, [3]float64{1.625, 3.5, 6.5}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields;
	// utime (field 14) is 1234 and stime (field 15) 56.
	stat := "4242 (pg (a) kvd) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 56 0 0 20 0 9 0 100 2568192 342"
	got, err := parseStatCPU(stat)
	if err != nil || got != 1290 {
		t.Fatalf("parseStatCPU = %d, %v; want 1290", got, err)
	}
	for _, bad := range []string{"", "4242 pgakvd S 1", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 x 56 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tpgakvd\nVmPeak:\t  900000 kB\nVmHWM:\t   95448 kB\nVmRSS:\t   80000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 95448 {
		t.Fatalf("parseVmHWM = %d, %v; want 95448", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tmany kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}
