// Command perfbench is gridlab's benchmark: it drives four experiment
// workloads through the program's public entry points in a closed loop
// and prints either the end-to-end metrics (--trace 0) or the per-layer
// cost ledger (--trace 1), then one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload chaos-sweep --seed 1 --seconds 36 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// programStart approximates process start: package variables are
// initialised before main runs.
var programStart = time.Now()

// measureProcs is how many processes an end-to-end run measures in,
// one after another, each for an equal share of the run's ops. Throughput
// depends on the process's address-space layout (on e14-federation,
// separate processes of one binary differ by up to 40%; with ASLR off
// they repeat within 5%), so one run samples several layouts. Odd, so
// the median set-up time is one process's.
const measureProcs = 9

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "first seed of the run's seed range")
	seconds := fs.Int("seconds", 36, "run length: the run covers seconds × the workload's seed rate seeds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced pass and per-layer metrics")
	spansPath := fs.String("spans", "", "span file of the traced pass (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl)")
	childOps := fs.Int("child-ops", 0, "internal: measure this many ops (seeds, or e14 calls) in this process and print its raw results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload {%s} --seed N --seconds N>0 --trace {0|1}\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	if *childOps > 0 {
		if err := measureHere(w, *seed, *childOps, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	want, err := loadDigests()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	n := w.runSeeds(*seconds)
	var res result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, n, stderr, stdout)
	} else {
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		}
		w.warm(*seed)
		res, err = perLayer(w, *seed, n, path, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	got := digestOf(w.digest())
	if got != want[w.name] {
		res.Correct = false
		fmt.Fprintf(stdout, "output check: FAIL digest of default-seed output %s, pinned %s\n", got, want[w.name])
	} else if res.Correct {
		fmt.Fprintf(stdout, "output check: ok (default-seed digest %s…, per-op invariants)\n", got[:12])
	} else {
		fmt.Fprintln(stdout, "output check: FAIL per-op invariants (see failed ops)")
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// procResult is what one measuring process reports to the run.
type procResult struct {
	SetupNs   int64   `json:"setup_ns"`
	WallNs    int64   `json:"wall_ns"`
	Attempted int     `json:"attempted"`
	Done      int     `json:"done"`
	Failed    int     `json:"failed"`
	Bad       bool    `json:"bad"`
	LatNs     []int64 `json:"lat_ns"`
	PeakRSS   int64   `json:"peak_rss"`
}

// measureHere is one measuring process: set-up (input generation plus
// one warm-up op, timed from program start), then the timed closed loop
// over the n seeds from seed.
func measureHere(w *workload, seed int64, n int, out io.Writer) error {
	w.warm(seed)
	setup := time.Since(programStart)
	p, st := timedPass(w, seed, n, false, nil)
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	r := procResult{SetupNs: int64(setup), WallNs: int64(st.wall), Attempted: st.attempted,
		Done: st.done, Failed: st.failed, Bad: st.bad, PeakRSS: rss}
	for _, op := range p.results {
		if op.done > 0 {
			r.LatNs = append(r.LatNs, int64(op.lat))
		}
	}
	return json.NewEncoder(out).Encode(&r)
}

// measureProc runs one measuring process of this program and decodes its
// report.
func measureProc(w *workload, seed int64, n int, stderr io.Writer) (procResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return procResult{}, fmt.Errorf("measuring process: %w", err)
	}
	cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
		"--child-ops", strconv.Itoa(n))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return procResult{}, fmt.Errorf("measuring process: %w", err)
	}
	var r procResult
	if err := json.Unmarshal(out, &r); err != nil {
		return procResult{}, fmt.Errorf("measuring process output: %w", err)
	}
	return r, nil
}

// passStats aggregates a pass's op results.
type passStats struct {
	attempted, done, failed int
	bad                     bool
	lat                     latencyStats
	wall                    time.Duration
}

func (p *pass) stats(wall time.Duration) passStats {
	s := passStats{wall: wall}
	var lat []time.Duration
	for _, r := range p.results {
		s.attempted += r.ops
		s.done += r.done
		s.failed += r.failed
		s.bad = s.bad || r.bad
		if r.done > 0 {
			lat = append(lat, r.lat)
		}
	}
	s.lat = summarize(lat)
	return s
}

func (s passStats) opsPerSec() float64 { return float64(s.done) / s.wall.Seconds() }

// timedPass runs the workload's closed loop over the n seeds from seed.
func timedPass(w *workload, seed int64, n int, traced bool, spans *spanLog) (*pass, passStats) {
	p := &pass{base: seed, workers: w.workers, traced: traced, spans: spans}
	t0 := time.Now()
	for p.cursor < n {
		w.step(p, n-p.cursor)
	}
	return p, p.stats(time.Since(t0))
}

// countPass runs the workload's fixed count-pass ops with tracing on and
// returns their deterministic work counts.
func countPass(w *workload, seed int64, workers int) counts {
	p := &pass{base: seed, workers: workers, traced: true, counts: counts{}}
	for p.cursor < w.countOps {
		w.step(p, w.countOps-p.cursor)
	}
	return p.counts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd is the untraced run over the n seeds from seed: measureProcs
// processes, one after another, each setting up and then running the
// closed loop over its share of the seeds. Each process continues the
// seed range where the previous one stopped, so the run covers the same
// inputs as one long loop. Op times are pooled for the tail; op_p50_ms
// is the mean of the processes' medians, which follows the host's speed
// phases in proportion where a pooled median of a bimodal mixture jumps
// between modes. Set-up time and peak RSS are medians over the processes.
func endToEnd(w *workload, seed int64, n int, stderr, out io.Writer) (result, error) {
	var (
		setups, lat, p50s []time.Duration
		rss               []int64
		st                passStats
	)
	for i := 0; i < measureProcs; i++ {
		lo, hi := i*n/measureProcs, (i+1)*n/measureProcs
		r, err := measureProc(w, seed+int64(lo), hi-lo, stderr)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Duration(r.SetupNs))
		rss = append(rss, r.PeakRSS)
		st.wall += time.Duration(r.WallNs)
		st.attempted += r.Attempted
		st.done += r.Done
		st.failed += r.Failed
		st.bad = st.bad || r.Bad
		var pl []time.Duration
		for _, ns := range r.LatNs {
			pl = append(pl, time.Duration(ns))
		}
		if len(pl) > 0 {
			p50s = append(p50s, medianOf(pl))
		}
		lat = append(lat, pl...)
	}
	st.lat = summarize(lat)
	setup, peak := medianOf(setups), medianOf(rss)
	m := map[string]metric{
		"setup_s":     {setup.Seconds(), "s"},
		"ops_per_s":   {st.opsPerSec(), "1/s"},
		"op_p50_ms":   {ms(meanOf(p50s)), "ms"},
		"op_tail_ms":  {ms(st.lat.Tail), "ms"},
		"peak_rss_mb": {float64(peak) / (1 << 20), "MB"},
	}
	fmt.Fprintf(out, "perfbench %s: seeds %d..%d, %d workers, closed loop, %d processes, %.1fs measured\n",
		w.name, seed, seed+int64(n)-1, w.workers, measureProcs, st.wall.Seconds())
	fmt.Fprintf(out, "  %-12s %14.4f %-4s program start to first timed op (one warm-up op), median of %d processes\n", "setup_s", m["setup_s"].Value, "s", measureProcs)
	fmt.Fprintf(out, "  %-12s %14.4f %-4s %d ops completed\n", "ops_per_s", m["ops_per_s"].Value, "1/s", st.done)
	fmt.Fprintf(out, "  %-12s %14.4f %-4s %s; mean of the %d processes' medians (pooled median %.4f)\n", "op_p50_ms", m["op_p50_ms"].Value, "ms", w.latNote,
		len(p50s), ms(st.lat.P50))
	fmt.Fprintf(out, "  %-12s %14.4f %-4s p%.2f, %d of %d samples beyond\n", "op_tail_ms", m["op_tail_ms"].Value, "ms",
		st.lat.TailPct, st.lat.Beyond, st.lat.N)
	fmt.Fprintf(out, "  %-12s %14.4f %-4s peak resident set (VmHWM), median of %d processes\n", "peak_rss_mb", m["peak_rss_mb"].Value, "MB", measureProcs)
	fmt.Fprintf(out, "  %-12s %14.6f %-4s %d of %d ops failed\n", "failed_frac", ratio(float64(st.failed), float64(st.attempted)), "1", st.failed, st.attempted)
	return result{Correct: !st.bad, Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// ratio is a / b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer is the traced run: an untraced and then a traced pass, each
// over the first half of the n seeds from seed (so both time the same
// inputs), then the fixed count pass and the identity probes.
func perLayer(w *workload, seed int64, n int, spansPath string, out io.Writer) (result, error) {
	cpu0 := cpuTime()
	rt0 := readRuntime()
	half := max(1, n/2)
	up, ust := timedPass(w, seed, half, false, nil)
	cpu1 := cpuTime()
	rt1 := readRuntime()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("start CPU profile: %w", err)
	}
	spans := newSpanLog()
	_, tst := timedPass(w, seed, half, true, spans)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	fold := foldCPU(samples)

	c := countPass(w, seed, w.workers)
	probe, err := probeIdentity()
	if err != nil {
		return result{}, err
	}

	// Host time of the count pass's ops, taken from the untraced pass
	// (the count pass itself exports traces).
	var countHost time.Duration
	for i, r := range up.results {
		if i >= w.countOps {
			break
		}
		countHost += r.lat * time.Duration(r.done)
	}

	share := func(layer string) float64 { return fold.share(fold.Layers[layer]) }
	// floor_ratio: e14 throughput per worker against one lease's minimum
	// crypto, one sign plus one verify on one core.
	floor := 0.0
	if w.name == e14Name {
		floor = ust.opsPerSec() / float64(w.workers) * (probe.SignUs + probe.VerifyUs) / 1e6
	}
	v := map[string]float64{
		"identity.cpu_share":           share("identity"),
		"identity.sign_us":             probe.SignUs,
		"identity.validate_us":         probe.ValidateUs,
		"identity.verify_dedup_ratio":  ratio(c["identity.sigs_presented"], c["identity.sigs_verified"]),
		"identity.sig_cache_hit_ratio": ratio(c["identity.sig_cache_hits"], c["identity.sig_cache_tries"]),
		"identity.floor_ratio":         floor,
		"gsi.cpu_share":                share("gsi"),
		"gram.cpu_share":               share("gram"),
		"sharp.cpu_share":              share("sharp"),
		"sharp.slots_per_live":         ratio(c["sharp.lease_slots"], c["sharp.live_leases"]),
		"mds.cpu_share":                share("mds"),
		"sim.cpu_share":                share("sim"),
		"sim.fluid.cpu_share":          fold.share(fold.Fluid),
		"sim.host_ns_per_event":        ratio(float64(countHost), c["sim.events"]),
		"simnet.cpu_share":             share("simnet"),
		"perf.worker_util":             ratio((cpu1 - cpu0).Seconds(), ust.wall.Seconds()*float64(w.workers)),
		"obs.trace_overhead":           ratio(float64(tst.lat.P50), float64(ust.lat.P50)),
		"runtime.alloc_bytes_per_op":   ratio(float64(rt1.allocBytes-rt0.allocBytes), float64(ust.done)),
		"runtime.gc_share":             ratio(rt1.gcCPU-rt0.gcCPU, (rt1.totalCPU-rt1.idleCPU)-(rt0.totalCPU-rt0.idleCPU)),
		"crypto.self_share":            fold.share(fold.CryptoSelf),
	}
	m := map[string]metric{}
	for _, d := range perLayerMetrics {
		x, ok := v[d.name]
		if !ok {
			x = c[d.name]
		}
		m[d.name] = metric{x, d.unit}
	}

	fmt.Fprintf(out, "perfbench %s --trace 1: seeds from %d, %d workers; untraced %.1fs (%d ops), traced %.1fs (%d ops), count pass %d ops\n",
		w.name, seed, w.workers, ust.wall.Seconds(), ust.done, tst.wall.Seconds(), tst.done, w.countOps)
	fmt.Fprintln(out, "per-layer metrics (cpu_share: traced-pass CPU profile; counts: count pass; 0 where the workload does not reach the layer)")
	for _, d := range perLayerMetrics {
		fmt.Fprintf(out, "  %-30s %16.6g %s\n", d.name, m[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "CPU fold of %d samples, %.2fs CPU, by innermost repro/internal package (shares sum to 100%%):\n", len(samples), float64(fold.Total)/1e9)
	for _, l := range fold.sortedLayers() {
		fmt.Fprintf(out, "  %-14s %6.2f%%\n", l, 100*share(l))
	}
	fmt.Fprintf(out, "overlapping views (not part of the 100%%): sim.fluid %.2f%% (inside sim), crypto self %.2f%% (inside its callers)\n",
		100*fold.share(fold.Fluid), 100*fold.share(fold.CryptoSelf))
	fmt.Fprintln(out, "spans of the traced pass (host time; self = span minus its children):")
	for _, s := range spans.summary() {
		fmt.Fprintf(out, "  %-26s n=%-6d total %10.1fms self %10.1fms\n", s.Name, s.N, ms(s.Total), ms(s.Self))
	}
	if err := writeSpans(spans, spansPath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans written to %s\n", spansPath)

	return result{
		Correct:   !ust.bad && !tst.bad,
		Attempted: ust.attempted + tst.attempted,
		Failed:    ust.failed + tst.failed,
		Metrics:   m,
	}, nil
}

func writeSpans(l *spanLog, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := l.writeJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
