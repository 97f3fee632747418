package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.json from the current program")

// TestMain lets the test binary stand in for the command when an
// end-to-end run starts its measuring processes (os.Executable).
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "--child-ops") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestDigests pins each workload's deterministic default-seed output.
func TestDigests(t *testing.T) {
	got := map[string]string{}
	for _, w := range workloads {
		got[w.name] = digestOf(w.digest())
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("digests differ:\n got %v\nwant %v", got, want)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares workloads this
// program runs, in its order, and exactly the metrics it reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var declared []string // the program's workloads that BENCHMARK.json names
	for _, name := range workloadNames() {
		if slices.Contains(names, name) {
			declared = append(declared, name)
		}
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end_to_end metrics, program has %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		d := endToEndMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per_layer metrics, program has %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		d := perLayerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

// TestCountsRepeat: the count pass is deterministic, run to run.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a, b := countPass(w, 3, w.workers), countPass(w, 3, w.workers)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between runs:\n%v\n%v", w.name, a, b)
		}
		if len(a) == 0 {
			t.Errorf("%s: no counts", w.name)
		}
	}
}

// TestCountsWorkerIndependent: the parallel workloads count the same
// work at one worker and at two.
func TestCountsWorkerIndependent(t *testing.T) {
	for _, name := range []string{"chaos-sweep", "e14-federation"} {
		w := findWorkload(name)
		if a, b := countPass(w, 3, 1), countPass(w, 3, 2); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: workers=1 %v\nworkers=2 %v", name, a, b)
		}
	}
}

// TestKnownPanicCountsAsFailed: seed 9 panics under the partitions
// profile (the fault generator schedules before the build's clock), so
// its op fails, and the other worker's seed is unaffected.
func TestKnownPanicCountsAsFailed(t *testing.T) {
	w := findWorkload("chaos-sweep")
	p := &pass{base: 9, workers: 2}
	w.step(p, 2)
	var failed []int
	for i, r := range p.results {
		if r.failed > 0 {
			failed = append(failed, i)
		}
		if r.bad {
			t.Errorf("op %d flagged as a bad output", i)
		}
	}
	if len(p.results) != 2 || !reflect.DeepEqual(failed, []int{0}) {
		t.Fatalf("%d ops, failed %v; want 2 ops with seed 9 failed", len(p.results), failed)
	}
}

func TestSeedStarts(t *testing.T) {
	ms := time.Millisecond
	// Two workers, three profiles: seeds 0 and 1 start at once; seed 0
	// panics at its last op and its worker stops; seed 1 finishes at
	// 50ms, so seed 2 starts then and panics at its first op; with both
	// workers gone, seed 3 never starts.
	at := []time.Duration{
		10 * ms, 20 * ms, 0,
		30 * ms, 40 * ms, 50 * ms,
		0, 0, 0,
		0, 0, 0,
	}
	got := seedStarts(at, 4, 3, 2)
	want := []time.Duration{0, 0, 50 * ms, -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seedStarts = %v, want %v", got, want)
	}
}

func TestSummarizeTail(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i))
	}
	st := summarize(lat)
	if st.Tail != 90 || st.Beyond != 10 || st.TailPct != 90 {
		t.Fatalf("tail %+v, want value 90 with 10 beyond at p90", st)
	}
	if st.P50 != 50 { // (50+51)/2 in integer nanoseconds
		t.Fatalf("p50 %v", st.P50)
	}
	if s := summarize(lat[:5]); s.Tail != 5 || s.Beyond != 0 {
		t.Fatalf("short sample tail %+v, want the maximum", s)
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := &spanLog{spans: []span{
		{ID: 1, Name: "batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "op", Start: 0, End: 60},
		{ID: 3, Parent: 1, Name: "op", Start: 40, End: 90}, // overlaps op 2
	}}
	got := l.summary()
	if got[0].Name != "batch" || got[0].Self != 10 || got[1].N != 2 || got[1].Total != 110 {
		t.Fatalf("summary %+v", got)
	}
}

// TestFoldSumsToOne profiles real work and checks that the per-layer
// shares partition the sampled CPU.
func TestFoldSumsToOne(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	w := findWorkload("cdn-overlay")
	p := &pass{base: 1, workers: 1}
	for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
		w.step(p, 1)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := foldCPU(samples)
	if f.Total == 0 {
		t.Skip("no CPU samples")
	}
	var sum int64
	for _, v := range f.Layers {
		sum += v
	}
	if sum != f.Total {
		t.Fatalf("layers sum to %d of %d sampled ns", sum, f.Total)
	}
	if f.Layers["sim"] == 0 {
		t.Errorf("cdn-overlay profile charged nothing to sim: %v", f.Layers)
	}
	if f.Fluid > f.Layers["sim"] {
		t.Errorf("sim.fluid %d exceeds sim %d", f.Fluid, f.Layers["sim"])
	}
}

func TestSampleLayer(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"crypto/internal/fips140/edwards25519/field.feMul", "crypto/ed25519.Verify", "repro/internal/identity.(*Principal).Verify", "main.main"}, "identity"},
		{[]string{"runtime.mallocgc", "repro/internal/perf/scale.runCell.func1"}, "perf/scale"},
		{[]string{"repro/internal/sim.(*FluidSystem).fill", "repro/internal/simnet.(*Network).StartFlow"}, "sim"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"sort.Slice", "main.summarize"}, "bench"},
	}
	for _, c := range cases {
		if got := sampleLayer(c.stack); got != c.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestRunPrintsResult runs the command end to end for one second and
// checks the result line's shape.
func TestRunPrintsResult(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		args := []string{"--workload", "cdn-overlay", "--seed", "2", "--seconds", "1", "--trace", trace,
			"--spans", t.TempDir() + "/spans.jsonl"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		want := endToEndMetrics
		if trace == "1" {
			want = perLayerMetrics
		}
		if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
			t.Fatalf("trace %s: result %+v", trace, res)
		}
		for _, d := range want {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v", trace, d.name, m)
			}
		}
	}
}

// TestRunIsFixedWork: a run covers a fixed seed range, so two runs with
// the same arguments attempt and fail the same ops, however fast the
// host is. Seeds 55..80 include 59, a known chaos panic.
func TestRunIsFixedWork(t *testing.T) {
	w := findWorkload("chaos-sweep")
	var got []result
	for i := 0; i < 2; i++ {
		var out, errb bytes.Buffer
		args := []string{"--workload", w.name, "--seed", "55", "--seconds", "1", "--trace", "0"}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d: %s", code, errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	if got[0].Attempted != w.runSeeds(1) || got[0].Failed < 1 {
		t.Fatalf("attempted %d failed %d, want %d attempted and the seed-59 panic failed", got[0].Attempted, got[0].Failed, w.runSeeds(1))
	}
	if got[0].Attempted != got[1].Attempted || got[0].Failed != got[1].Failed {
		t.Errorf("runs differ: %d/%d vs %d/%d failed/attempted", got[0].Failed, got[0].Attempted, got[1].Failed, got[1].Attempted)
	}
}
