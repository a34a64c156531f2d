package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// testConfig is deliberately tiny: the experiment suite's correctness is
// what's under test here, not model quality (benches use BenchConfig).
func testConfig() Config {
	base := core.BaseConfig()
	base.Dim, base.Heads, base.Layers, base.FFNHidden = 16, 2, 1, 32
	base.PretrainEpochs, base.PretrainPairsPerEpoch = 1, 40
	base.FinetuneEpochs, base.FinetuneSamplesPerEpoch = 1, 120
	large := base
	large.Name = "LearnShapley-large"
	large.Dim, large.Heads = 24, 2
	large.Seed = 21
	return Config{
		Seed:                3,
		QueriesPerDB:        16,
		Scale:               dataset.Scale{Base: 0.8},
		MaxCasesPerQuery:    5,
		MaxEvalCases:        20,
		Base:                base,
		Large:               large,
		SweepFinetuneEpochs: 1,
	}
}

var (
	suiteOnce sync.Once
	suiteInst *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suiteInst, suiteErr = NewSuite(testConfig())
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteInst
}

func TestTable1Shapes(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res := s.Table1(&buf)
	for _, db := range []string{"IMDB", "Academic"} {
		total := res.PerDB[db]["total"]
		if total.Queries != 16 {
			t.Errorf("%s total queries = %d", db, total.Queries)
		}
		if total.Results == 0 || total.Facts == 0 {
			t.Errorf("%s stats empty: %+v", db, total)
		}
		tr := res.PerDB[db]["train"]
		te := res.PerDB[db]["test"]
		if tr.Queries <= te.Queries {
			t.Errorf("%s train (%d) should exceed test (%d)", db, tr.Queries, te.Queries)
		}
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("missing heading")
	}
}

func TestTable2WitnessSparsest(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res := s.Table2(&buf)
	for _, db := range []string{"IMDB", "Academic"} {
		wit := res.Rows[db]["witness"]["train-train"]
		syn := res.Rows[db]["syntax"]["train-train"]
		if wit > syn {
			t.Errorf("%s: witness similarity (%v) should be sparser than syntax (%v)", db, wit, syn)
		}
		for _, metric := range []string{"syntax", "witness", "rank"} {
			for _, pair := range []string{"train-train", "train-dev", "train-test"} {
				v := res.Rows[db][metric][pair]
				if v < 0 || v > 1 {
					t.Errorf("%s %s %s = %v out of [0,1]", db, metric, pair, v)
				}
			}
		}
	}
}

func TestTable3RunsAllMethods(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Table3(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []string{"IMDB", "Academic"} {
		rows := res.Rows[db]
		if len(rows) != 7 {
			t.Fatalf("%s: %d methods, want 7", db, len(rows))
		}
		for _, r := range rows {
			if r.NumCases == 0 {
				t.Errorf("%s/%s evaluated no cases", db, r.Method)
			}
			if r.NDCG10 < 0 || r.NDCG10 > 1 {
				t.Errorf("%s/%s NDCG = %v", db, r.Method, r.NDCG10)
			}
		}
	}
}

func TestTable4AllCombos(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Table4(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("combos = %d, want 7", len(res.Rows))
	}
}

func TestTable5FindsExample(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Table5(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil {
		// Ranks must be a permutation of 1..n on both sides.
		n := len(res.Rows)
		seenPred := make([]bool, n+1)
		for _, r := range res.Rows {
			if r.PredictedRank < 1 || r.PredictedRank > n || seenPred[r.PredictedRank] {
				t.Errorf("bad predicted rank %d", r.PredictedRank)
			}
			seenPred[r.PredictedRank] = true
		}
	}
}

func TestTable6TimesAllMethods(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Table6(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("methods = %d, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.MaxMS < r.AvgMS {
			t.Errorf("%s: max %v < avg %v", r.Method, r.MaxMS, r.AvgMS)
		}
	}
}

func TestFigure7Orthogonality(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res := s.Figure7(&buf)
	for db, corr := range res.Correlations {
		for pair, v := range corr {
			if v < -1-1e-9 || v > 1+1e-9 {
				t.Errorf("%s corr(%s) = %v", db, pair, v)
			}
		}
	}
	if !strings.Contains(buf.String(), "heat-maps") {
		t.Error("missing output")
	}
}

func TestFigure8Prints(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	s.Figure8(&buf)
	if !strings.Contains(buf.String(), "output tuple") {
		t.Error("Figure 8 output missing samples")
	}
}

func TestFigure9Analysis(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Figure9(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LineageBuckets) == 0 || len(res.TableBuckets) == 0 {
		t.Error("empty buckets")
	}
}

func TestFigure10Correlations(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Figure10(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"syntax", "witness", "rank"} {
		if _, ok := res.Corr[metric]; !ok {
			t.Errorf("missing metric %s", metric)
		}
	}
}

func TestFigure11LogSweep(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Figure11(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("pcts = %d", len(res.Rows))
	}
	// Unseen-fact fraction must shrink (weakly) as the log grows.
	if res.UnseenPct[10] < res.UnseenPct[100] {
		t.Errorf("unseen%%: 10%% log = %v < 100%% log = %v", res.UnseenPct[10], res.UnseenPct[100])
	}
}

func TestFigure12SeenVsUnseen(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := s.Figure12(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanSeenNDCG < 0 || res.MeanSeenNDCG > 1 {
		t.Errorf("seen NDCG = %v", res.MeanSeenNDCG)
	}
	if res.MeanUnseenNDCG < 0 || res.MeanUnseenNDCG > 1 {
		t.Errorf("unseen NDCG = %v", res.MeanUnseenNDCG)
	}
}

func TestShapleyAblationRuns(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	if err := ShapleyAblation(s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"exact (decomposition tree)", "brute force", "CNF proxy"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in ablation output", want)
		}
	}
}

func TestExtensionNegativeSampling(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := ExtensionUnrestrictedRanking(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"without": res.AUCWithoutNegatives,
		"with":    res.AUCWithNegatives,
	} {
		if v < 0 || v > 1 {
			t.Errorf("AUC %s negatives = %v", name, v)
		}
	}
}

func TestExtensionCrossSchema(t *testing.T) {
	s := testSuite(t)
	var buf bytes.Buffer
	res, err := ExtensionCrossSchema(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.InDomainNDCG < 0 || res.InDomainNDCG > 1 || res.CrossSchemaNDCG < 0 || res.CrossSchemaNDCG > 1 {
		t.Errorf("NDCGs out of range: %+v", res)
	}
}
