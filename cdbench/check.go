package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"credist"
	"credist/internal/serve"
)

// relTol is the agreement the partitioned answers are held to against the
// same quantities computed unpartitioned.
//
// A partitioned /spread is the telescoped sum of per-seed marginal gains
// over the lambda-truncated UC engine, while an unpartitioned /spread runs
// the per-action evaluator, which truncates nothing: the two differ by
// the truncation, not by float rounding. So a partitioned spread is held
// to relTol against the unpartitioned telescoped sum, and that sum to the
// envelope the repository's own parity tests use against the evaluator
// (evaluator >= telescoped - 1e-6 and <= 1.25*telescoped + 1).
const relTol = 1e-9

// telescoped is sigma over the unpartitioned engine as the coordinator
// computes it: the sum of each seed's marginal gain over the seeds before
// it, in order.
func telescoped(sn *serve.Snapshot, seeds []credist.NodeID) (float64, error) {
	total := 0.0
	for i := range seeds {
		g, err := sn.Gains(seeds[:i], seeds[i:i+1])
		if err != nil {
			return 0, err
		}
		total += g[0]
	}
	return total, nil
}

// Per-route caps on how many answers are recomputed in-process; the
// sample is spread evenly over the run.
const (
	checkSpreadCap  = 64
	checkGainCap    = 64
	checkExplainCap = 32
	checkSelectCap  = 5 // fresh selections (one CELF run each)
)

// reply decodes every answer shape the workloads see.
type reply struct {
	Snapshot       int64             `json:"snapshot"`
	Spread         *float64          `json:"spread"`
	Gains          []float64         `json:"gains"`
	Seeds          []credist.NodeID  `json:"seeds"`
	Gain           *float64          `json:"gain"`
	Paths          []json.RawMessage `json:"paths"`
	TotalPaths     int               `json:"total_paths"`
	Estimate       float64           `json:"estimate"`
	CILow          float64           `json:"ci_low"`
	CIHigh         float64           `json:"ci_high"`
	Samples        int               `json:"samples"`
	Cached         *bool             `json:"cached"`
	AppendedTuples int               `json:"appended_tuples"`
	Actions        int               `json:"actions"`
}

// checks collects what the correctness pass compared and what disagreed.
type checks struct {
	counts     map[string]int
	mismatches []string
}

func (c *checks) ok() bool { return len(c.mismatches) == 0 }

func (c *checks) failf(format string, args ...any) {
	c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// deref renders an optional answer field for a mismatch message.
func deref(p *float64) any {
	if p == nil {
		return "missing"
	}
	return *p
}

func near(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= relTol*math.Max(math.Abs(a), math.Abs(b)) || d < 1e-12
}

func allNear(a, b []float64) bool { return slices.EqualFunc(a, b, near) }

// picker spreads at most cap picks evenly over n candidates.
func picker(n, cap int) func(i int) bool {
	stride := max(1, (n+cap-1)/max(1, cap))
	return func(i int) bool { return i%stride == 0 }
}

// check recomputes a sample of the run's answers in-process on the same
// model files the server loaded and compares them: bit for bit on the
// single-engine workloads, to relTol for the partitioned one. Every
// answer that came back 200 is decodable, and every ingest acknowledged
// exactly the tuples it carried.
func (r *run) check(reqs []Request, outs []outcome, snap0 int64) checks {
	c := checks{counts: map[string]int{}}
	ds, err := credist.LoadDataset("custom", r.data.graph, r.data.log)
	if err != nil {
		c.failf("load dataset: %v", err)
		return c
	}
	replies := make([]*reply, len(outs))
	n := map[string]int{}
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		var rp reply
		if err := json.Unmarshal(outs[i].body, &rp); err != nil {
			c.failf("%s: undecodable answer: %v", reqs[i].Target, err)
			continue
		}
		replies[i] = &rp
		n[reqs[i].Route]++
	}
	if r.w.partitions > 0 {
		r.checkPartitioned(&c, ds, reqs, outs, replies, snap0, n)
	} else {
		r.checkSingle(&c, ds, reqs, replies, n)
	}
	return c
}

func (r *run) checkSingle(c *checks, ds *credist.Dataset, reads []Request, replies []*reply, n map[string]int) {
	m, err := credist.LoadModel(ds, r.data.mod, credist.Options{})
	if err != nil {
		c.failf("load model: %v", err)
		return
	}
	pickSpread, pickGain, pickExplain := picker(n["spread"], checkSpreadCap), picker(n["gain"], checkGainCap), picker(n["explain"], checkExplainCap)
	seen := map[string]int{}
	memo := map[int]credist.SeedPrefix{}
	for i, rp := range replies {
		if rp == nil {
			continue
		}
		q := &reads[i]
		idx := seen[q.Route]
		seen[q.Route]++
		switch {
		case q.Route == "spread" && pickSpread(idx):
			c.counts["spread"]++
			if rp.Spread == nil || !sameBits([]float64{*rp.Spread}, []float64{m.Spread(q.Seeds)}) {
				c.failf("%s: spread %v, in-process %v", q.Target, deref(rp.Spread), m.Spread(q.Seeds))
			}
		case q.Route == "gain" && pickGain(idx):
			c.counts["gain"]++
			if want := m.Gains(q.Seeds, q.Cands); !sameBits(rp.Gains, want) {
				c.failf("%s: gains %v, in-process %v", q.Target, rp.Gains, want)
			}
		case q.Route == "explain" && pickExplain(idx):
			c.counts["explain"]++
			want := m.ExplainSeed(q.Seeds[0], q.Top)
			if rp.Gain == nil || math.Float64bits(*rp.Gain) != math.Float64bits(want.Gain) ||
				len(rp.Paths) != len(want.Paths) || rp.TotalPaths != want.TotalPaths {
				c.failf("%s: explanation differs from in-process ExplainSeed", q.Target)
			}
		case q.Route == "seeds" && q.Eps > 0:
			c.counts["seeds_eps"]++
			if len(rp.Seeds) != q.K || len(slices.Compact(slices.Sorted(slices.Values(rp.Seeds)))) != q.K ||
				!(rp.CILow <= rp.Estimate && rp.Estimate <= rp.CIHigh) || rp.Estimate <= 0 || rp.Samples <= 0 {
				c.failf("%s: malformed approximate selection", q.Target)
			}
		case q.Route == "seeds" && q.Obj != nil:
			if c.counts["seeds_obj"] >= checkSelectCap {
				continue
			}
			c.counts["seeds_obj"]++
			want, err := m.SelectSeedsObj(q.K, q.Obj)
			if err != nil || !slices.Equal(rp.Seeds, want.Seeds) || !sameBits(rp.Gains, want.Gains) {
				c.failf("%s: selection differs from in-process SelectSeedsObj (%v)", q.Target, err)
			}
		case q.Route == "seeds":
			c.counts["seeds"]++
			want, ok := memo[q.K]
			if !ok {
				res := m.Selection(q.K)
				want = credist.SeedPrefix{Seeds: res.Seeds, Gains: res.Gains}
				memo[q.K] = want
			}
			if !slices.Equal(rp.Seeds, want.Seeds) || !sameBits(rp.Gains, want.Gains) {
				c.failf("%s: selection differs from in-process Selection", q.Target)
			}
		}
	}
}

// checkPartitioned replays the acknowledged ingests on an unpartitioned
// in-process snapshot chain and holds every sampled partitioned read to
// the chain member it was answered from (by snapshot id).
func (r *run) checkPartitioned(c *checks, ds *credist.Dataset, reads []Request, outs []outcome, replies []*reply,
	snap0 int64, n map[string]int) {
	sn, err := serve.Build(serve.Source{Dataset: ds, ModelPath: r.data.mod})
	if err != nil {
		c.failf("build reference snapshot: %v", err)
		return
	}
	chain := map[int64]*serve.Snapshot{snap0: sn}
	actions := ds.Log.NumActions()
	prev := snap0
	// The closed loop sends the ingests one at a time, in stream order.
	for i := range reads {
		q := &reads[i]
		if q.Route != "ingest" {
			continue
		}
		rp := replies[i]
		if rp == nil {
			c.failf("ingest %s: no answer (%d, %v)", q.Target, outs[i].status, outs[i].err)
			break
		}
		actions += int(q.Tuples[len(q.Tuples)-1].Action-q.Tuples[0].Action) + 1
		c.counts["ingest"]++
		if rp.AppendedTuples != len(q.Tuples) || rp.Actions != actions || rp.Snapshot != prev+1 {
			c.failf("ingest: appended %d tuples to reach %d actions as snapshot %d, want %d, %d, %d",
				rp.AppendedTuples, rp.Actions, rp.Snapshot, len(q.Tuples), actions, prev+1)
			return
		}
		if sn, err = sn.Ingest(q.Tuples, false); err != nil {
			c.failf("reference ingest: %v", err)
			return
		}
		prev = rp.Snapshot
		chain[prev] = sn
	}
	pickSpread, pickGain := picker(n["spread"], checkSpreadCap), picker(n["gain"], checkGainCap)
	seen := map[string]int{}
	for i, rp := range replies {
		if rp == nil {
			continue
		}
		q := &reads[i]
		idx := seen[q.Route]
		seen[q.Route]++
		ref, ok := chain[rp.Snapshot]
		if !ok {
			c.failf("%s: answered from unknown snapshot %d", q.Target, rp.Snapshot)
			continue
		}
		switch {
		case q.Route == "spread" && pickSpread(idx):
			c.counts["spread"]++
			tele, err := telescoped(ref, q.Seeds)
			if err != nil || rp.Spread == nil || !near(*rp.Spread, tele) {
				c.failf("%s @%d: spread %v, unpartitioned telescoped %v (%v)", q.Target, rp.Snapshot, deref(rp.Spread), tele, err)
				continue
			}
			if eval, err := ref.Spread(q.Seeds); err != nil || eval < tele-1e-6 || eval > tele*1.25+1 {
				c.failf("%s @%d: telescoped spread %v outside the lambda envelope of the evaluator's %v (%v)",
					q.Target, rp.Snapshot, tele, eval, err)
			}
		case q.Route == "gain" && pickGain(idx):
			c.counts["gain"]++
			want, err := ref.Gains(q.Seeds, q.Cands)
			if err != nil || !allNear(rp.Gains, want) {
				c.failf("%s @%d: gains %v, unpartitioned %v (%v)", q.Target, rp.Snapshot, rp.Gains, want, err)
			}
		case q.Route == "seeds" && c.counts["seeds"] < checkSelectCap:
			c.counts["seeds"]++
			want, _, err := ref.SelectSeeds(q.K)
			if err != nil || !slices.Equal(rp.Seeds, want.Seeds) || !allNear(rp.Gains, want.Gains) {
				c.failf("%s @%d: selection differs from the unpartitioned one (%v)", q.Target, rp.Snapshot, err)
			}
		}
	}
}
