package main

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/relation"
)

// sizes37 are lineage sizes of 37 bodies, in no particular order.
var sizes37 = func() []int {
	s := make([]int, 37)
	for i := range s {
		s[i] = (i*7)%23 + 1
	}
	return s
}()

func TestPlanIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := makePlan(w, sizes37, 5, 15), makePlan(w, sizes37, 5, 15)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 5 differ", w.name)
		}
		if c := makePlan(w, sizes37, 6, 15); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 5 and 6 give the same plan", w.name)
		}
	}
}

func TestPlanShape(t *testing.T) {
	w, err := workloadByName("rank_short")
	if err != nil {
		t.Fatal(err)
	}
	const bodies = 37
	p := makePlan(w, sizes37, 1, 15)
	if len(p.warmup) != w.warmup {
		t.Errorf("warm-up of %d requests, want %d", len(p.warmup), w.warmup)
	}
	for i, pp := range p.phases {
		if pp.span != 7500*time.Millisecond {
			t.Errorf("phase %d spans %v, want half of 15 s", i, pp.span)
		}
		if len(pp.passes) != planSlots/bodies {
			t.Errorf("phase %d plans %d passes, want %d", i, len(pp.passes), planSlots/bodies)
		}
		// Every pass sends every body once.
		for k, order := range pp.passes {
			sorted := append([]int(nil), order...)
			sort.Ints(sorted)
			for b, got := range sorted {
				if got != b {
					t.Fatalf("phase %d, pass %d does not send each of the %d bodies once", i, k, bodies)
				}
			}
		}
	}
	if reflect.DeepEqual(p.phases[0].passes[0], p.phases[0].passes[1]) {
		t.Error("two passes send the bodies in the same order")
	}
}

func TestBalancedOrderNeighbours(t *testing.T) {
	sizes := make([]int, 64) // body i has i+1 facts: stratum i/8
	for i := range sizes {
		sizes[i] = i + 1
	}
	rng := rand.New(rand.NewSource(1))
	for _, mix := range []bool{false, true} {
		order := balancedOrder(rng, sizes, 64, mix)
		for round := 0; round < 8; round++ {
			var strata []int
			for _, b := range order[8*round : 8*round+8] {
				strata = append(strata, b/8)
			}
			want := []int{0, 1, 2, 3, 4, 5, 6, 7}
			if round%2 == 1 {
				want = []int{7, 6, 5, 4, 3, 2, 1, 0}
			}
			if mix {
				want = []int{0, 7, 1, 6, 2, 5, 3, 4}
			}
			if !reflect.DeepEqual(strata, want) {
				t.Errorf("mix %v, round %d: strata %v, want %v", mix, round, strata, want)
			}
		}
	}
}

func TestBodySelectionIsDeterministic(t *testing.T) {
	cfg := dataset.DefaultConfig(dataset.IMDB)
	cfg.NumQueries = 12
	var picks [2][][]string
	for i := range picks {
		c, err := dataset.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		all, err := allBodies(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			var sel []string
			for _, b := range w.pick(all) {
				sel = append(sel, string(b.json))
			}
			picks[i] = append(picks[i], sel)
		}
	}
	if !reflect.DeepEqual(picks[0], picks[1]) {
		t.Error("two builds of the same corpus select different request bodies")
	}
	for i, w := range workloads {
		if len(picks[0][i]) == 0 {
			t.Errorf("%s selects no body from a 12-query IMDB corpus", w.name)
		}
	}
}

func TestSpreadBodiesKeepsSizeOrder(t *testing.T) {
	var all []body
	for i := 0; i < 100; i++ {
		all = append(all, body{query: i, lineage: make([]relation.FactID, i%10+1)})
	}
	got := spreadBodies(all, 10)
	for i, b := range got {
		if len(b.lineage) != i+1 {
			t.Errorf("body %d has %d facts, want %d", i, len(b.lineage), i+1)
		}
	}
}
