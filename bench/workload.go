package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/sqlparse"
)

// body is one /rank request: an output tuple of a corpus query together with
// the lineage the benchmark computed for it itself, which every answer is
// checked against.
type body struct {
	query   int // corpus query index
	tuple   int // index into the query's evaluated result
	sql     string
	q       *sqlparse.Query
	t       *engine.OutputTuple
	lineage []relation.FactID
	json    []byte
}

// phase is one stretch of closed-loop load within the measured seconds: its
// clients send whole passes over the workload's bodies, each client its next
// request as soon as its previous one is answered, until the phase's share of
// the seconds has passed. The pass under way then finishes, so every pass
// sends the same requests and differs from the others only in their order.
type phase struct {
	share   float64 // share of the measured seconds
	clients int     // how many clients send; 0 = one per CPU
	latency bool    // its passes give p50_ms
	rps     bool    // its passes give rps
}

// workload is one traffic mix. The corpus is always built from corpus seed
// 1: the lineage-size mix of a corpus changes up to twofold with its seed
// (IMDB median lineage 3 facts at seed 1, 1 at seed 2), which would swamp
// every comparison across run seeds. The run seed chooses the request order
// only.
type workload struct {
	name       string
	kind       dataset.Kind
	trainBatch int  // core.ModelConfig.TrainBatch: 8 is cmd/serve's packed path, 0 learnshap's replica path
	warmup     int  // untimed requests before the first phase
	mix        bool // neighbouring requests pair short lineages with long ones (see balancedOrder)
	phases     []phase
	pick       func(all []body) []body
}

// mixedBodies is how many tuples rank_mixed draws from the Academic corpus,
// and longBodies how many of its tuples of 16 or more facts rank_long sends:
// few enough that a pass over them takes a few seconds, so a run makes
// several passes.
const (
	mixedBodies = 100
	longBodies  = 24
)

var workloads = []workload{
	{
		// Short lineages: HTTP, JSON, parsing, evaluation, the batch window
		// and scoring are each a share of a request; the encoder a small one.
		// p50_ms is the latency of one client alone, rps the throughput of
		// two: open loop at 100 requests/s gave p50 from 6.5 to 12.1 ms
		// across six seeds, as queueing magnified every slowdown of the host.
		name: "rank_short", kind: dataset.IMDB, trainBatch: 8, warmup: 50,
		phases: []phase{
			{clients: 1, share: 0.5, latency: true},
			{share: 0.5, rps: true},
		},
		pick: func(all []body) []body {
			return filterBodies(all, func(b body) bool { return len(b.lineage) <= 5 })
		},
	},
	{
		// Long lineages: the encoder does nearly all the work. One client,
		// because with two, which long lineages met in a batch changed with
		// the seed and rps read either 8.3 or 11.2 requests/s. The model is
		// trained on the replica path (learnshap's default) and rank_mixed's
		// on the packed path, on the same corpus and schedule, so the two
		// setup_s compare the training paths.
		name: "rank_long", kind: dataset.Academic, trainBatch: 0, warmup: 10,
		phases: []phase{{clients: 1, share: 1, latency: true, rps: true}},
		pick: func(all []body) []body {
			return spreadBodies(filterBodies(all, func(b body) bool { return len(b.lineage) >= 16 }), longBodies)
		},
	},
	{
		// The natural lineage mix in one queue: short requests are batched
		// with long ones and wait for them. Closed loop, because open loop at
		// 15 requests/s gave p50 from 24 to 47 ms and p90 from 249 to 749 ms
		// across ten seeds.
		name: "rank_mixed", kind: dataset.Academic, trainBatch: 8, warmup: 50, mix: true,
		phases: []phase{{share: 1, latency: true, rps: true}},
		pick: func(all []body) []body {
			return spreadBodies(all, mixedBodies)
		},
	},
}

// workloadByName finds a workload definition.
func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// modelConfig is the model every workload trains: LearnShapley-base on a
// fixed short schedule, on the workload's training path, with one worker per
// CPU.
func modelConfig(w workload) core.ModelConfig {
	cfg := core.BaseConfig()
	cfg.PretrainEpochs, cfg.PretrainPairsPerEpoch = 1, 50
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 1, 150
	cfg.TrainBatch = w.trainBatch
	cfg.Workers = 0
	return cfg
}

// allBodies evaluates every corpus query with the engine and renders one
// request per output tuple. A tuple whose rendered values equal an earlier
// tuple's of the same query is skipped: the server resolves a request to the
// first matching tuple, so the answer could not be checked against it.
func allBodies(c *dataset.Corpus) ([]body, error) {
	var out []body
	for qi, entry := range c.Queries {
		q, err := sqlparse.Parse(entry.SQL)
		if err != nil {
			return nil, fmt.Errorf("parse query %d: %w", qi, err)
		}
		res, err := engine.Evaluate(c.DB, q)
		if err != nil {
			return nil, fmt.Errorf("evaluate query %d: %w", qi, err)
		}
		seen := make(map[string]bool, len(res.Tuples))
		for ti, t := range res.Tuples {
			vals := make([]string, len(t.Values))
			for i, v := range t.Values {
				vals[i] = v.String()
			}
			data, err := json.Marshal(serve.RankRequest{SQL: entry.SQL, Tuple: vals})
			if err != nil {
				return nil, err
			}
			if seen[string(data)] {
				continue
			}
			seen[string(data)] = true
			out = append(out, body{query: qi, tuple: ti, sql: entry.SQL, q: q, t: t, lineage: t.Lineage(), json: data})
		}
	}
	return out, nil
}

func filterBodies(all []body, keep func(body) bool) []body {
	var out []body
	for _, b := range all {
		if keep(b) {
			out = append(out, b)
		}
	}
	return out
}

// bySize orders bodies by lineage size, then by query and tuple.
func bySize(all []body) []body {
	s := append([]body(nil), all...)
	sort.SliceStable(s, func(i, j int) bool {
		if len(s[i].lineage) != len(s[j].lineage) {
			return len(s[i].lineage) < len(s[j].lineage)
		}
		if s[i].query != s[j].query {
			return s[i].query < s[j].query
		}
		return s[i].tuple < s[j].tuple
	})
	return s
}

// spreadBodies takes n bodies at evenly spaced ranks of the size order, which
// keeps the lineage-size distribution of the whole set.
func spreadBodies(all []body, n int) []body {
	s := bySize(all)
	if n >= len(s) {
		return s
	}
	out := make([]body, n)
	for i := range out {
		out[i] = s[(2*i+1)*len(s)/(2*n)]
	}
	return out
}

// planSlots is about how many requests a phase plans: at least one pass, and
// as many whole passes as fit. A phase ends when its passes run out, even if
// its span has not passed.
const planSlots = 1 << 16

// plan is the seeded request schedule of one run: which bodies are sent in
// which order.
type plan struct {
	warmup []int
	phases []phasePlan
}

type phasePlan struct {
	passes [][]int       // body indices in send order, every body once per pass
	span   time.Duration // the phase sends passes until this much time has passed
}

// makePlan draws the schedule from the seed; sizes are the bodies' lineage
// sizes. Every pass is a balanced permutation of the bodies (see
// balancedOrder).
func makePlan(w workload, sizes []int, seed int64, seconds float64) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{warmup: balancedOrder(rng, sizes, w.warmup, w.mix)}
	n := len(sizes)
	for _, ph := range w.phases {
		pp := phasePlan{span: time.Duration(ph.share * seconds * float64(time.Second))}
		order := balancedOrder(rng, sizes, max(1, planSlots/n)*n, w.mix)
		for len(order) >= n && n > 0 {
			pp.passes = append(pp.passes, order[:n:n])
			order = order[n:]
		}
		p.phases = append(p.phases, pp)
	}
	return p
}

// strata is how many lineage-size classes a balanced order interleaves.
const strata = 8

// balancedOrder concatenates random permutations of the bodies up to length
// count, so every body is sent once before any is sent twice. Each
// permutation splits the bodies by lineage size into strata of equal count
// and deals them out in rounds of one body per stratum, the seed choosing
// which body of a stratum goes to which round. Every stretch of the order
// therefore carries the whole size mix.
//
// The strata follow a fixed pattern within a round because neighbours in
// the order are the requests two closed-loop clients send together and the
// server batches together, and a batch answers all its requests when its
// slowest finishes. In snake order (0..k-1, then k-1..0) neighbours have
// similar sizes; in mirror order (0, k-1, 1, k-2, ...), used when mix is
// set, each short lineage is batched with a long one. Random neighbours
// would make the batch composition, and with it p50_ms and rps, change by a
// fifth from seed to seed.
func balancedOrder(rng *rand.Rand, sizes []int, count int, mix bool) []int {
	n := len(sizes)
	bySize := make([]int, n)
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return sizes[bySize[a]] < sizes[bySize[b]] })
	k := min(n, strata)
	pattern := make([]int, k) // the strata of one round, in send order
	for i := range pattern {
		switch {
		case !mix:
			pattern[i] = i
		case i%2 == 0:
			pattern[i] = i / 2
		default:
			pattern[i] = k - 1 - i/2
		}
	}
	out := make([]int, 0, count)
	for n > 0 && len(out) < count {
		groups := make([][]int, k)
		rounds := 0
		for s := range groups {
			g := append([]int(nil), bySize[s*n/k:(s+1)*n/k]...)
			rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
			groups[s] = g
			rounds = max(rounds, len(g))
		}
		for round := 0; round < rounds && len(out) < count; round++ {
			for i := range pattern {
				s := pattern[i]
				if !mix && round%2 == 1 {
					s = k - 1 - i // snake: odd rounds run backwards
				}
				if round < len(groups[s]) && len(out) < count {
					out = append(out, groups[s][round])
				}
			}
		}
	}
	return out
}
