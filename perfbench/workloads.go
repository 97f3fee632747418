package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/faultlab"
	"repro/internal/obs"
	"repro/internal/perf/chaos"
	"repro/internal/perf/scale"
	"repro/internal/workload/cdn"
)

// opResult is the outcome of one timed unit of work. For most workloads
// it stands for one op; an e14-federation call stands for every lease
// it was asked to grant.
type opResult struct {
	ops    int           // ops attempted
	done   int           // ops that returned (completed, checks aside)
	failed int           // ops that panicked, were lost, or failed a gate or check
	lat    time.Duration // host time per op; valid when done > 0
	bad    bool          // a seed-independent output check failed
}

// pass is one closed-loop run of a workload: the next unit is issued
// only after the previous one returns. Its fields select what the pass
// collects besides timings.
type pass struct {
	base    int64 // first seed of the run's seed range
	cursor  int   // next op index; op i runs seed base+i
	workers int
	traced  bool     // ChaosConfig.Trace on (chaos workloads)
	counts  counts   // non-nil on the count pass
	spans   *spanLog // non-nil on the traced pass
	results []opResult
}

// counts accumulates deterministic work counts by metric name.
type counts map[string]float64

// workload drives one experiment through the program's public entry
// points.
type workload struct {
	name    string
	workers int
	// seedRate is the closed loop's rate in seeds per second (e14: calls
	// per second) on the 2-vCPU host the benchmark was tuned on. A run of
	// --seconds S covers a fixed S × seedRate seeds, so its inputs, and
	// with them its attempted and failed ops, depend on --seed and
	// --seconds alone; on that host it takes at most about S seconds.
	seedRate float64
	// countOps is the fixed op count of the count pass.
	countOps int
	// step runs the next ops, at most n, from p.cursor and advances it.
	// chaos-sweep runs up to one batch; the others run one op.
	step func(p *pass, n int)
	// warm runs one untimed op of the workload (set-up warm-up).
	warm func(seed int64)
	// digest renders the deterministic output for the default seed.
	digest func() string
	// latNote says what one latency sample is.
	latNote string
}

// defaultSeed is the seed whose rendered outputs are pinned in
// testdata/digests.json.
const defaultSeed = 1

var workloads = []*workload{chaosSweep(), byzantineMarket(), e14Federation(), cdnOverlay()}

// runSeeds is how many seeds a run of the given seconds covers: at least
// one per measuring process.
func (w *workload) runSeeds(seconds int) int {
	return max(measureProcs, int(math.Round(float64(seconds)*w.seedRate)))
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// recovered runs fn and reports whether it panicked.
func recovered(fn func()) (panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	fn()
	return false
}

// --- chaos-sweep ---------------------------------------------------------

// chaosBatchSeeds is how many seeds one chaos.ForEachReport call sweeps:
// large enough that the end-of-batch barrier idles a worker for a small
// share of the batch.
const chaosBatchSeeds = 16

func chaosSweep() *workload {
	profiles := faultlab.Profiles()
	np := len(profiles)
	w := &workload{name: "chaos-sweep", workers: 2, seedRate: 26, countOps: 4,
		latNote: "host time per op: one seed's build and its three forked profile runs"}
	w.step = func(p *pass, n int) {
		seeds := max(1, min(chaosBatchSeeds, n))
		cfg := faultlab.DefaultChaosConfig()
		cfg.Trace = p.traced
		at := make([]time.Duration, seeds*np) // visit time per grid index, 0 = never visited
		ok := make([]bool, seeds*np)
		cs := make([]counts, seeds*np)
		span := p.spans.begin("chaos.ForEachReport", 0)
		t0 := time.Now()
		recovered(func() {
			chaos.ForEachReport(p.base+int64(p.cursor), seeds, profiles, cfg, p.workers, func(i int, rep *faultlab.Report) {
				at[i] = time.Since(t0)
				ok[i] = rep.OK()
				if p.counts != nil {
					cs[i] = tracerCounts(rep.Tracer, true)
				}
			})
		})
		p.spans.end(span)
		starts := seedStarts(at, seeds, np, p.workers)
		for s := 0; s < seeds; s++ {
			r := opResult{ops: 1}
			grid := at[s*np : (s+1)*np]
			if starts[s] < 0 || slices.Contains(grid, 0) {
				// Panicked, or lost behind a panic in its fork chain or
				// on its worker.
				r.failed = 1
			} else {
				r.done = 1
				r.lat = grid[np-1] - starts[s]
				if slices.Contains(ok[s*np:(s+1)*np], false) {
					r.failed = 1
				}
				op := p.spans.add("op seed", span, t0, starts[s], grid[np-1])
				prev := starts[s]
				for j, end := range grid {
					p.spans.add("run "+profiles[j].Name, op, t0, prev, end)
					prev = end
				}
			}
			p.results = append(p.results, r)
			for _, c := range cs[s*np : (s+1)*np] {
				if p.counts != nil && c != nil {
					p.counts.add(c)
				}
			}
		}
		p.cursor += seeds
	}
	w.warm = func(seed int64) {
		// One op: a single seed's build and its three profile runs.
		recovered(func() {
			chaos.ForEachReport(seed, 1, profiles, faultlab.DefaultChaosConfig(), 1, func(int, *faultlab.Report) {})
		})
	}
	w.digest = func() string {
		var b strings.Builder
		for _, rep := range chaos.Reports(defaultSeed, 4, profiles, faultlab.DefaultChaosConfig(), 2) {
			fmt.Fprintf(&b, "seed=%d profile=%s\n%s", rep.Seed, rep.Profile, rep.Summary)
			for _, v := range rep.Violations {
				fmt.Fprintf(&b, "violation: %s\n", v)
			}
		}
		return b.String()
	}
	return w
}

// seedStarts reconstructs when each seed of a ForEachReport batch began,
// from the times its ops reached visit. perf.ForEach hands seeds out in
// index order: the first `workers` seeds start with the batch, and each
// later seed starts when some worker finishes its previous seed, in
// order of finishing. A worker that panics takes no further seed. The
// result is -1 for a seed that never started.
func seedStarts(at []time.Duration, seeds, np, workers int) []time.Duration {
	var finished []time.Duration
	for s := 0; s < seeds; s++ {
		if last := at[s*np+np-1]; last != 0 {
			finished = append(finished, last)
		}
	}
	sort.Slice(finished, func(a, b int) bool { return finished[a] < finished[b] })
	starts := make([]time.Duration, seeds)
	for s := range starts {
		switch k := s - workers; {
		case k < 0:
			starts[s] = 0
		case k < len(finished):
			starts[s] = finished[k]
		default:
			starts[s] = -1
		}
	}
	return starts
}

// --- byzantine-market ----------------------------------------------------

func byzantineMarket() *workload {
	mixed, err := faultlab.ProfileByName("mixed")
	if err != nil {
		panic(err)
	}
	w := &workload{name: "byzantine-market", workers: 1, seedRate: 13, countOps: 4,
		latNote: "host time per op: one seed"}
	w.step = func(p *pass, n int) {
		seed := p.base + int64(p.cursor)
		cfg := faultlab.DefaultByzantineChaosConfig()
		cfg.Trace = p.traced
		var rep *faultlab.Report
		span := p.spans.begin("faultlab.RunChaos", 0)
		t0 := time.Now()
		panicked := recovered(func() { rep = faultlab.RunChaos(seed, mixed, cfg) })
		lat := time.Since(t0)
		p.spans.end(span)
		r := opResult{ops: 1, failed: 1}
		if !panicked {
			r.done, r.lat = 1, lat
			bz := rep.Byzantine
			r.bad = bz == nil || !attacksRejected(bz)
			if rep.OK() && !r.bad && bz.ByzShareLate <= byzShareGate {
				r.failed = 0
			}
			if p.counts != nil {
				c := tracerCounts(rep.Tracer, true)
				if bz != nil {
					c["trust.slashed"] = float64(bz.SlashEvents)
					c["adversary.attacks_rejected"] = float64(bz.ReplayRejected + bz.ForgeRejected)
				}
				p.counts.add(c)
			}
		}
		p.results = append(p.results, r)
		p.cursor++
	}
	w.warm = func(seed int64) {
		recovered(func() { faultlab.RunChaos(seed, mixed, faultlab.DefaultByzantineChaosConfig()) })
	}
	w.digest = func() string {
		res := faultlab.NewByzantineSweepResult()
		for s := int64(0); s < 4; s++ {
			res.Add(faultlab.RunChaos(defaultSeed+s, mixed, faultlab.DefaultByzantineChaosConfig()))
		}
		return res.String()
	}
	return w
}

// byzShareGate is the byzantine sweep's late-market-share gate
// (faultlab.ByzantineSweepResult.OK).
const byzShareGate = 0.05

// attacksRejected is the byzantine output check: the attack ticker ran,
// and every replay and every forgery was rejected.
func attacksRejected(bz *faultlab.ByzantineStats) bool {
	return bz.ReplayAttempts > 0 && bz.ForgeAttempts > 0 &&
		bz.ReplayRejected == bz.ReplayAttempts && bz.ForgeRejected == bz.ForgeAttempts
}

// --- e14-federation ------------------------------------------------------

// e14Config is the per-call federation: the default per-site shape (100
// nodes and 1,000 leases per site) on 4 sites, so one run holds enough
// calls for a latency distribution. scale clamps the 16 default regions
// to the site count.
func e14Config() scale.Config {
	cfg := scale.DefaultConfig()
	cfg.Sites = 4
	return cfg
}

const e14Name = "e14-federation"

func e14Federation() *workload {
	w := &workload{name: e14Name, workers: 2, seedRate: 2.8, countOps: 1,
		latNote: "host time per granted lease, amortized over one scale.Run call"}
	w.step = func(p *pass, n int) {
		seed := p.base + int64(p.cursor)
		cfg := e14Config()
		target := cfg.Sites * cfg.LeasesPerSite
		var rep *scale.Report
		span := p.spans.begin("scale.Run", 0)
		t0 := time.Now()
		panicked := recovered(func() { rep = scale.Run(seed, cfg, p.workers) })
		wall := time.Since(t0)
		p.spans.end(span)
		r := opResult{ops: target, failed: target}
		if !panicked {
			r.done = rep.GrantedN
			r.failed = target - rep.GrantedN
			if rep.GrantedN > 0 {
				r.lat = wall / time.Duration(rep.GrantedN)
			}
			if !e14Conserved(rep) {
				r.bad, r.failed = true, target
			}
			if p.counts != nil {
				p.counts.add(e14Counts(rep))
			}
		}
		p.results = append(p.results, r)
		p.cursor++
	}
	w.warm = func(seed int64) { recovered(func() { scale.Run(seed, e14Config(), w.workers) }) }
	w.digest = func() string {
		var b bytes.Buffer
		scale.Run(defaultSeed, e14Config(), w.workers).Render(&b)
		return b.String()
	}
	return w
}

// e14Conserved is the e14 output check: every granted lease is live or
// released, and no more signatures were verified than presented.
func e14Conserved(rep *scale.Report) bool {
	return rep.GrantedN == rep.LiveN+rep.ReleasedN && rep.BatchVerifiedN <= rep.BatchSigN
}

func e14Counts(rep *scale.Report) counts {
	c := counts{
		"sharp.leases_granted":     float64(rep.GrantedN),
		"sharp.redeem_ok":          float64(rep.GrantedN),
		"sharp.live_leases":        float64(rep.LiveN),
		"sharp.lease_slots":        float64(rep.LeaseSlotsN),
		"mds.registrations":        float64(rep.RegisterN),
		"mds.slots":                float64(rep.MDSSlotsN),
		"identity.sigs_presented":  float64(rep.BatchSigN),
		"identity.sigs_verified":   float64(rep.BatchVerifiedN),
		"identity.sig_cache_hits":  0,
		"identity.sig_cache_tries": 0,
	}
	for _, cell := range rep.Cells {
		c["identity.sig_cache_hits"] += float64(cell.SigHits)
		c["identity.sig_cache_tries"] += float64(cell.SigHits + cell.SigMisses)
	}
	return c
}

// --- cdn-overlay ---------------------------------------------------------

// cdnHorizon is the canonical CDN run length (gridlab cdn).
const cdnHorizon = 10 * time.Minute

// cdnCell is one (profile, mode) cell of the CDN curve.
type cdnCell struct {
	prof    faultlab.Profile
	striped bool
}

func cdnCells() []cdnCell {
	var cells []cdnCell
	for _, p := range cdn.CurveProfiles() {
		cells = append(cells, cdnCell{p, false}, cdnCell{p, true})
	}
	return cells
}

func cdnOverlay() *workload {
	cells := cdnCells()
	w := &workload{name: "cdn-overlay", workers: 1, seedRate: 6, countOps: 1,
		latNote: "host time per op: one seed's six cells, one at a time"}
	w.step = func(p *pass, n int) {
		seed := p.base + int64(p.cursor)
		op := p.spans.begin("op curve", 0)
		t0 := time.Now()
		r := opResult{ops: 1}
		for _, c := range cells {
			cfg := cdn.DefaultConfig()
			cfg.Striped = c.striped
			var sc *cdn.Scenario
			panicked := recovered(func() {
				s := p.spans.begin("cdn.New", op)
				sc = cdn.New(seed, cfg, c.prof, cdnHorizon)
				p.spans.end(s)
				s = p.spans.begin("sim.Engine.RunUntil", op)
				sc.Eng.RunUntil(cdnHorizon)
				p.spans.end(s)
			})
			if panicked {
				r.failed = 1
				continue
			}
			if !cdnConserved(sc.Stats, cfg.Requests) {
				r.bad, r.failed = true, 1
			}
			if p.counts != nil {
				ct := tracerCounts(sc.Net.Tracer(), false)
				ct["sim.events"] = float64(sc.Eng.Processed())
				p.counts.add(ct)
			}
		}
		r.lat = time.Since(t0)
		p.spans.end(op)
		if r.failed == 0 {
			r.done = 1
		}
		p.results = append(p.results, r)
		p.cursor++
	}
	w.warm = func(seed int64) {
		recovered(func() {
			for _, c := range cells {
				cfg := cdn.DefaultConfig()
				cfg.Striped = c.striped
				cdn.New(seed, cfg, c.prof, cdnHorizon).Eng.RunUntil(cdnHorizon)
			}
		})
	}
	w.digest = func() string {
		var b bytes.Buffer
		cdn.Curve(defaultSeed, cdn.DefaultConfig(), cdn.CurveProfiles(), cdnHorizon, 1).Render(&b)
		return b.String()
	}
	return w
}

// cdnConserved is the CDN output check: every request that arrived is
// exactly one of hit, coalesced rider or new fetch, and no more fetches
// ended than started.
func cdnConserved(st cdn.Stats, requests int) bool {
	return st.Requests == requests &&
		st.Requests == st.Hits+st.Coalesced+st.Fetches &&
		st.Done+st.Failed <= st.Fetches
}

// --- shared --------------------------------------------------------------

// tracerCounts reads the obs counters a workload's layers register. With
// engine set it also recovers the engine.processed gauge from the
// tracer's JSONL export (the gauge has no accessor of its own).
func tracerCounts(tr *obs.Tracer, engine bool) counts {
	c := counts{}
	if tr == nil {
		return c
	}
	read := func(metric string, names ...string) {
		for _, n := range names {
			c[metric] += float64(tr.Counter(n).Value())
		}
	}
	read("gram.jobs_submitted", "gram.jobs.submitted")
	read("gram.jobs_done", "gram.jobs.done")
	read("gram.jobs_failed", "gram.jobs.failed")
	read("sharp.tickets_issued", "sharp.tickets.issued")
	read("sharp.redeem_ok", "sharp.redeem.ok")
	read("sharp.leases_granted", "sharp.redeem.ok")
	read("sharp.redeem_rejected", "sharp.redeem.rejected", "sharp.redeem.conflict")
	read("simnet.msgs_sent", "net.msgs_sent")
	read("simnet.drops", "net.drop.loss", "net.drop.partition", "net.drop.host_down")
	read("simnet.flows_started", "net.flows.started")
	read("broker.deploys_ok", "broker.deploys.ok")
	read("broker.deploys_failed", "broker.deploys.failed")
	read("broker.renews_ok", "broker.renews.ok")
	read("resilience.retries", "resilience.retries")
	read("resilience.giveups", "resilience.giveups")
	if engine {
		c["sim.events"] = lastGauge(tr, "engine.processed")
	}
	return c
}

// lastGauge returns the last sample of a named gauge in the tracer's
// JSONL export, or 0 if it was never sampled.
func lastGauge(tr *obs.Tracer, name string) float64 {
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		return 0
	}
	var v float64
	needle := []byte(`"name":"` + name + `"`)
	for _, line := range bytes.Split(b.Bytes(), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte(`{"t":"gauge"`)) || !bytes.Contains(line, needle) {
			continue
		}
		var g struct{ V float64 }
		if json.Unmarshal(line, &g) == nil {
			v = g.V
		}
	}
	return v
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}
