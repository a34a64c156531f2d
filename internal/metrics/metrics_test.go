package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/shapley"
)

func TestNDCGPerfectRanking(t *testing.T) {
	gold := shapley.Values{1: 0.5, 2: 0.3, 3: 0.2}
	if got := NDCGAtK(gold, gold, 10); math.Abs(got-1) > 1e-12 {
		t.Errorf("NDCG of gold ranking = %v, want 1", got)
	}
}

func TestNDCGWorstRanking(t *testing.T) {
	gold := shapley.Values{1: 1.0, 2: 0.0, 3: 0.0}
	// Prediction puts the only relevant fact last.
	pred := shapley.Values{1: 0.0, 2: 1.0, 3: 0.5}
	got := NDCGAtK(pred, gold, 10)
	want := (1.0 / math.Log2(4)) / (1.0 / math.Log2(2))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NDCG = %v, want %v", got, want)
	}
}

func TestNDCGCutoff(t *testing.T) {
	gold := shapley.Values{1: 0.9, 2: 0.8}
	// Relevant fact outside the cutoff contributes nothing.
	pred := shapley.Values{1: 0.1, 2: 0.9}
	got := NDCGAtK(pred, gold, 1)
	want := (0.8 / math.Log2(2)) / (0.9 / math.Log2(2))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NDCG@1 = %v, want %v", got, want)
	}
}

func TestNDCGAllZeroGold(t *testing.T) {
	gold := shapley.Values{1: 0, 2: 0}
	pred := shapley.Values{1: 0.3, 2: 0.1}
	if got := NDCGAtK(pred, gold, 5); got != 1 {
		t.Errorf("NDCG with zero gold = %v, want 1", got)
	}
}

func TestNDCGBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gold, pred := shapley.Values{}, shapley.Values{}
		for i := 0; i < 1+rng.Intn(10); i++ {
			id := relation.FactID(i)
			gold[id] = rng.Float64()
			pred[id] = rng.Float64()
		}
		g := NDCGAtK(pred, gold, 1+rng.Intn(12))
		return g >= 0 && g <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPrecisionAtK(t *testing.T) {
	gold := shapley.Values{1: 0.9, 2: 0.8, 3: 0.1, 4: 0.05}
	pred := shapley.Values{1: 0.5, 3: 0.4, 2: 0.3, 4: 0.1}
	// top-2(pred) = {1,3}, top-2(gold) = {1,2} -> 1/2.
	if got := PrecisionAtK(pred, gold, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("p@2 = %v, want 0.5", got)
	}
	// top-4 both = all -> 1.
	if got := PrecisionAtK(pred, gold, 4); got != 1 {
		t.Errorf("p@4 = %v, want 1", got)
	}
}

func TestPrecisionShortLists(t *testing.T) {
	gold := shapley.Values{1: 0.9, 2: 0.8}
	pred := shapley.Values{2: 0.9, 1: 0.8}
	// k=5 > list size: evaluated at the list size (2), both tops coincide.
	if got := PrecisionAtK(pred, gold, 5); got != 1 {
		t.Errorf("p@5 on short list = %v, want 1", got)
	}
}

func TestPrecisionEdgeCases(t *testing.T) {
	if PrecisionAtK(shapley.Values{}, shapley.Values{}, 3) != 1 {
		t.Error("empty gold should give 1")
	}
	if PrecisionAtK(shapley.Values{1: 1}, shapley.Values{1: 1}, 0) != 0 {
		t.Error("k=0 should give 0")
	}
}

func TestPrecisionSelfIsOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		gold := shapley.Values{}
		for i := 0; i < 1+rng.Intn(10); i++ {
			gold[relation.FactID(i)] = rng.Float64()
		}
		return PrecisionAtK(gold, gold, 1+rng.Intn(10)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMSE(t *testing.T) {
	pred := shapley.Values{1: 1, 2: 0}
	gold := shapley.Values{1: 0, 3: 2}
	// Union {1,2,3}: errors 1, 0, -2 -> (1+0+4)/3.
	if got, want := MSE(pred, gold), 5.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("MSE = %v, want %v", got, want)
	}
	if MSE(shapley.Values{}, shapley.Values{}) != 0 {
		t.Error("MSE of empties should be 0")
	}
}

func TestPearson(t *testing.T) {
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("constant series should give 0, got %v", got)
	}
	if got := Pearson([]float64{1}, []float64{1, 2}); got != 0 {
		t.Errorf("mismatched lengths should give 0, got %v", got)
	}
}

func TestLinearTrend(t *testing.T) {
	if got := LinearTrend([]float64{0, 1, 2}, []float64{1, 3, 5}); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := LinearTrend([]float64{1, 1}, []float64{1, 2}); got != 0 {
		t.Errorf("degenerate slope = %v, want 0", got)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
}

func TestSpearman(t *testing.T) {
	// Any strictly monotone transform has perfect rank correlation.
	xs := []float64{0.1, 2, 3.5, 7, 11}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // monotone, wildly non-linear
	}
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("monotone Spearman = %v, want 1", got)
	}
	rev := []float64{11, 7, 3.5, 2, 0.1}
	if got := Spearman(xs, rev); math.Abs(got+1) > 1e-12 {
		t.Errorf("reversed Spearman = %v, want -1", got)
	}
	if Spearman(nil, nil) != 0 {
		t.Error("empty Spearman should be 0")
	}
	if Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("constant series Spearman should be 0")
	}
}

func TestSpearmanTies(t *testing.T) {
	// Tied values take fractional ranks: {1, 2, 2, 3} ranks to {1, 2.5, 2.5, 4}.
	got := fractionalRanks([]float64{1, 2, 2, 3})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fractionalRanks = %v, want %v", got, want)
		}
	}
	// With ties handled by averaging, Spearman stays symmetric and bounded.
	xs := []float64{1, 2, 2, 3, 0}
	ys := []float64{2, 4, 4, 9, 1}
	a, b := Spearman(xs, ys), Spearman(ys, xs)
	if a != b {
		t.Errorf("Spearman not symmetric: %v vs %v", a, b)
	}
	if math.Abs(a-1) > 1e-12 {
		t.Errorf("tied monotone Spearman = %v, want 1", a)
	}
}
