package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// metricDef is one metric as BENCHMARK.json declares it; the self-tests
// check that the two lists agree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var perLayerMetrics = []metricDef{
	{name: "identity.cpu_share", unit: "fraction", better: "lower"},
	{name: "identity.sign_us", unit: "us", better: "lower"},
	{name: "identity.validate_us", unit: "us", better: "lower"},
	{name: "identity.verify_dedup_ratio", unit: "x", better: "higher"},
	{name: "identity.sig_cache_hit_ratio", unit: "fraction", better: "higher"},
	{name: "identity.floor_ratio", unit: "fraction", better: "higher"},
	{name: "gsi.cpu_share", unit: "fraction", better: "lower"},
	{name: "gram.cpu_share", unit: "fraction", better: "lower"},
	{name: "gram.jobs_submitted", unit: "count", better: "higher"},
	{name: "gram.jobs_done", unit: "count", better: "higher"},
	{name: "gram.jobs_failed", unit: "count", better: "lower"},
	{name: "sharp.cpu_share", unit: "fraction", better: "lower"},
	{name: "sharp.tickets_issued", unit: "count", better: "higher"},
	{name: "sharp.redeem_ok", unit: "count", better: "higher"},
	{name: "sharp.redeem_rejected", unit: "count", better: "lower"},
	{name: "sharp.leases_granted", unit: "count", better: "higher"},
	{name: "sharp.live_leases", unit: "count", better: "higher"},
	{name: "sharp.slots_per_live", unit: "ratio", better: "lower"},
	{name: "mds.cpu_share", unit: "fraction", better: "lower"},
	{name: "mds.registrations", unit: "count", better: "higher"},
	{name: "mds.slots", unit: "count", better: "lower"},
	{name: "sim.cpu_share", unit: "fraction", better: "lower"},
	{name: "sim.fluid.cpu_share", unit: "fraction", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower"},
	{name: "simnet.cpu_share", unit: "fraction", better: "lower"},
	{name: "simnet.msgs_sent", unit: "count", better: "lower"},
	{name: "simnet.drops", unit: "count", better: "lower"},
	{name: "simnet.flows_started", unit: "count", better: "lower"},
	{name: "broker.deploys_ok", unit: "count", better: "higher"},
	{name: "broker.deploys_failed", unit: "count", better: "lower"},
	{name: "broker.renews_ok", unit: "count", better: "higher"},
	{name: "trust.slashed", unit: "count", better: "higher"},
	{name: "adversary.attacks_rejected", unit: "count", better: "higher"},
	{name: "resilience.retries", unit: "count", better: "lower"},
	{name: "resilience.giveups", unit: "count", better: "lower"},
	{name: "perf.worker_util", unit: "fraction", better: "higher"},
	{name: "obs.trace_overhead", unit: "x", better: "lower"},
	{name: "runtime.alloc_bytes_per_op", unit: "B", better: "lower"},
	{name: "runtime.gc_share", unit: "fraction", better: "lower"},
	{name: "crypto.self_share", unit: "fraction", better: "lower"},
}

// digestsJSON pins, per workload, the SHA-256 of its rendered output for
// the default seed. Regenerate with: go test -run TestDigests -update
//
//go:embed testdata/digests.json
var digestsJSON []byte

func loadDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return m, nil
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
