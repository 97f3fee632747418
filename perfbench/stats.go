package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/identity"
)

// latencyStats summarises per-op host times.
type latencyStats struct {
	N       int
	P50     time.Duration
	Tail    time.Duration
	TailPct float64 // percentile of Tail
	Beyond  int     // samples above Tail
}

// tailBeyond is how many samples the tail percentile must leave above it.
const tailBeyond = 10

// summarize returns the median and the highest percentile that has at
// least tailBeyond samples beyond it. With fewer than tailBeyond+1
// samples the tail is the maximum and Beyond says how few lie past it.
func summarize(lat []time.Duration) latencyStats {
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	st := latencyStats{N: len(s)}
	if len(s) == 0 {
		return st
	}
	st.P50 = medianOf(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = len(s) - 1
	}
	st.Tail = s[i]
	st.Beyond = len(s) - 1 - i
	st.TailPct = 100 * float64(i+1) / float64(len(s))
	return st
}

// medianOf returns the median of v, which it leaves unsorted.
func medianOf[T ~int64](v []T) T {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meanOf returns the mean of v, or 0 if v is empty.
func meanOf(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range v {
		sum += x
	}
	return sum / time.Duration(len(v))
}

// cpuTime returns the process's CPU time, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the peak resident set of the process image in bytes,
// from VmHWM in /proc/self/status. getrusage's ru_maxrss is not used: on
// Linux it keeps the high-water mark of the image the process was exec'd
// from, so it depends on the launching program.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// runtimeSample is a snapshot of the Go runtime's allocation and GC
// accounting.
type runtimeSample struct {
	allocBytes               uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var r runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = ms[2].Value.Float64()
	}
	if ms[3].Value.Kind() == metrics.KindFloat64 {
		r.idleCPU = ms[3].Value.Float64()
	}
	return r
}

// identityProbe times the identity layer's primitives directly on the
// chain shape chaos-sweep uses: a CA-issued user certificate and one
// delegated proxy.
type identityProbe struct {
	SignUs, VerifyUs, ValidateUs float64
}

// probeRounds × probeOps calls are timed per primitive; the median round
// is reported.
const (
	probeRounds = 7
	probeOps    = 64
)

func probeIdentity() (identityProbe, error) {
	rng := rand.New(rand.NewSource(defaultSeed))
	ca := identity.NewCA("vo-ca", 1e6*time.Hour, rng)
	user := identity.NewPrincipal("chaos-user", rng)
	cred := identity.UserCredential(user, ca.IssueUser(user, 0, 1e5*time.Hour))
	proxy, err := cred.Delegate("chaos-user/p", time.Second, 9*time.Hour, nil, rng)
	if err != nil {
		return identityProbe{}, err
	}
	v := identity.NewVerifier(ca)
	msg := make([]byte, 256)
	rng.Read(msg)
	sig := user.Sign(msg)

	var p identityProbe
	var validateErr error
	p.SignUs = timeRounds(func() { user.Sign(msg) })
	p.VerifyUs = timeRounds(func() {
		if !user.Verify(msg, sig) {
			validateErr = errProbe
		}
	})
	p.ValidateUs = timeRounds(func() {
		if _, err := v.Validate(proxy, time.Hour); err != nil {
			validateErr = err
		}
	})
	return p, validateErr
}

var errProbe = errors.New("identity probe: signature did not verify")

// timeRounds returns the median per-call microseconds of fn.
func timeRounds(fn func()) float64 {
	rounds := make([]time.Duration, probeRounds)
	for r := range rounds {
		t0 := time.Now()
		for i := 0; i < probeOps; i++ {
			fn()
		}
		rounds[r] = time.Since(t0) / probeOps
	}
	return float64(medianOf(rounds)) / 1e3
}
