package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file reads the benchmark's own runtime/pprof CPU profile and folds
// its samples into per-layer CPU shares. The profile is the gzipped
// protobuf described by github.com/google/pprof/proto/profile.proto;
// only the fields the fold needs are decoded.

// cpuSample is one stack of function names (leaf first, inlined
// functions included) with its CPU nanoseconds.
type cpuSample struct {
	stack  []string
	weight int64
}

// parseCPUProfile decodes a gzipped pprof CPU profile into samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("open profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read profile: %w", err)
	}
	type line struct{ fn uint64 }
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		samples []sample
		locs    = map[uint64][]line{}
		funcs   = map[uint64]int64{} // function id -> name string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUvarints(&s.locs, wire, v, b)
				case 2:
					var vs []uint64
					if err := appendUvarints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var ls []line
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							l.fn = v
						}
						return nil
					})
					ls = append(ls, l)
					return err
				}
				return nil
			})
			locs[id] = ls
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{weight: s.values[len(s.values)-1]}
		for _, id := range s.locs {
			for _, l := range locs[id] {
				cs.stack = append(cs.stack, str(funcs[l.fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks the protobuf fields of b. For varint fields v holds the
// value; for length-delimited fields b holds the payload.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field in either encoding:
// packed (one length-delimited run) or one value per field.
func appendUvarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// internalPrefix marks the program's own packages in function names.
const internalPrefix = "repro/internal/"

// cpuFold is the per-layer split of the sampled CPU.
type cpuFold struct {
	// Total is the sampled CPU in nanoseconds.
	Total int64
	// Layers partitions Total: each sample goes to the package of its
	// innermost repro/internal frame ("sim", "perf/scale", ...), else to
	// "bench" when the benchmark's own code is on the stack, else to
	// "runtime". These shares sum to 1.
	Layers map[string]int64
	// Fluid is the part of Layers["sim"] whose innermost repro frame is
	// a sim.(*FluidSystem) method: an overlapping view.
	Fluid int64
	// CryptoSelf is the CPU whose leaf frame is in a crypto/* package,
	// whichever layer called it: another overlapping view.
	CryptoSelf int64
}

func foldCPU(samples []cpuSample) cpuFold {
	f := cpuFold{Layers: map[string]int64{}}
	for _, s := range samples {
		f.Total += s.weight
		f.Layers[sampleLayer(s.stack)] += s.weight
		if len(s.stack) > 0 && strings.HasPrefix(s.stack[0], "crypto/") {
			f.CryptoSelf += s.weight
		}
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, internalPrefix) {
				if strings.HasPrefix(fn, internalPrefix+"sim.(*FluidSystem)") {
					f.Fluid += s.weight
				}
				break
			}
		}
	}
	return f
}

// sampleLayer names the layer a stack is charged to.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// share returns n's fraction of the sampled CPU.
func (f cpuFold) share(n int64) float64 { return ratio(float64(n), float64(f.Total)) }

// sortedLayers returns layer names by descending CPU.
func (f cpuFold) sortedLayers() []string {
	names := make([]string, 0, len(f.Layers))
	for k := range f.Layers {
		names = append(names, k)
	}
	sort.Slice(names, func(a, b int) bool {
		if f.Layers[names[a]] != f.Layers[names[b]] {
			return f.Layers[names[a]] > f.Layers[names[b]]
		}
		return names[a] < names[b]
	})
	return names
}
