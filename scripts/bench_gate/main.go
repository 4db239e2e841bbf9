// Command bench_gate compares a committed benchmark baseline JSON
// against a freshly generated one and fails when any gated metric
// regressed past its rule's threshold.
//
//	go run ./scripts/bench_gate [-threshold 0.15] [-wall-threshold 0.40] [-alloc-slack 0.5] baseline.json current.json
//
// The gate is intentionally narrow: it walks both documents and compares
// only numeric fields matched by one of three rules (key matching is
// case-insensitive):
//
//   - keys containing "modeled" or "hostpeak" — deterministic cost-model
//     outputs and tracker-measured host memory peaks, reproducible across
//     machines — gated at the tight relative threshold (default 15%).
//   - keys containing "nsperop" — real wall-clock per operation from the
//     hot-path benchmarks — gated at the generous wall threshold (default
//     40%) to tolerate CI noise while still catching order-of-magnitude
//     hot-loop regressions.
//   - keys containing "allocsperop" — allocations per operation — gated
//     absolutely: the current value may exceed the baseline by at most the
//     alloc slack (default 0.5). Allocation counts are deterministic, so
//     a loop that was allocation-free going back to one alloc per op is a
//     regression no relative rule on a ~0 baseline can express.
//
// Other wall-clock fields (wallS totals, throughput) and edge counts are
// machine- or load-dependent and are ignored. Gated paths present only
// in the current file are ignored too (new benchmarks don't fail the
// gate until their baseline is committed), but a gated baseline path
// missing from the current file fails it: a dropped or renamed row must
// come with a regenerated baseline rather than pass unchecked. Array
// elements carrying a string "name" field are keyed by that name rather
// than their index, so reordering a benchmark table doesn't misalign the
// comparison.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// floorS ignores modeled values below this many seconds: relative drift
// on near-zero baselines is dominated by formatting noise, not cost.
const floorS = 1e-6

// floorNs likewise ignores sub-nanosecond wall baselines.
const floorNs = 1.0

// metricClass says which gating rule applies to a flattened metric.
type metricClass int

const (
	classModeled metricClass = iota // relative, tight threshold
	classWall                       // relative, generous threshold
	classAllocs                     // absolute slack
)

type metric struct {
	value float64
	class metricClass
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "maximum allowed relative regression for modeled metrics")
	wallThreshold := flag.Float64("wall-threshold", 0.40, "maximum allowed relative regression for ns/op wall metrics")
	allocSlack := flag.Float64("alloc-slack", 0.5, "maximum allowed absolute increase in allocs/op")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench_gate [-threshold 0.15] [-wall-threshold 0.40] [-alloc-slack 0.5] baseline.json current.json")
		os.Exit(2)
	}
	base, err := loadMetrics(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_gate:", err)
		os.Exit(2)
	}
	cur, err := loadMetrics(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_gate:", err)
		os.Exit(2)
	}

	paths := make([]string, 0, len(base))
	var missing []string
	for p := range base {
		if _, ok := cur[p]; ok {
			paths = append(paths, p)
		} else {
			missing = append(missing, p)
		}
	}
	sort.Strings(paths)
	sort.Strings(missing)
	if len(paths) == 0 && len(missing) == 0 {
		fmt.Printf("bench_gate: %s vs %s: no shared gated metrics (nothing to gate)\n",
			flag.Arg(0), flag.Arg(1))
		return
	}

	failed := len(missing)
	for _, p := range missing {
		fmt.Printf("MISSING %s: gated in %s, absent from %s\n", p, flag.Arg(0), flag.Arg(1))
	}
	for _, p := range paths {
		b, c := base[p].value, cur[p].value
		switch base[p].class {
		case classModeled:
			if b < floorS {
				continue
			}
			if rel := (c - b) / b; rel > *threshold {
				failed++
				fmt.Printf("REGRESSION %s: %.6f -> %.6f (%+.1f%%, limit %+.0f%%)\n",
					p, b, c, 100*rel, 100**threshold)
			}
		case classWall:
			if b < floorNs {
				continue
			}
			if rel := (c - b) / b; rel > *wallThreshold {
				failed++
				fmt.Printf("REGRESSION %s: %.0f ns/op -> %.0f ns/op (%+.1f%%, limit %+.0f%%)\n",
					p, b, c, 100*rel, 100**wallThreshold)
			}
		case classAllocs:
			if c > b+*allocSlack {
				failed++
				fmt.Printf("REGRESSION %s: %.2f allocs/op -> %.2f allocs/op (limit %.2f + %.2f)\n",
					p, b, c, b, *allocSlack)
			}
		}
	}
	fmt.Printf("bench_gate: compared %d gated metrics from %s, %d missing, %d failed\n",
		len(paths), flag.Arg(0), len(missing), failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// loadMetrics flattens the JSON document at path into dotted-path ->
// metric for every numeric leaf matched by a gating rule.
func loadMetrics(path string) (map[string]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metric{}
	walk(doc, "", out)
	return out, nil
}

// classify returns the gating rule for a leaf key, if any.
func classify(key string) (metricClass, bool) {
	lk := strings.ToLower(key)
	switch {
	case strings.Contains(lk, "modeled") || strings.Contains(lk, "hostpeak"):
		return classModeled, true
	case strings.Contains(lk, "nsperop"):
		return classWall, true
	case strings.Contains(lk, "allocsperop"):
		return classAllocs, true
	}
	return 0, false
}

func walk(v any, prefix string, out map[string]metric) {
	switch node := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(node))
		for k := range node {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			if f, ok := node[k].(float64); ok {
				if class, gated := classify(k); gated {
					out[p] = metric{value: f, class: class}
				}
				continue
			}
			walk(node[k], p, out)
		}
	case []any:
		for i, item := range node {
			seg := fmt.Sprintf("%s[%d]", prefix, i)
			if obj, ok := item.(map[string]any); ok {
				if name, ok := obj["name"].(string); ok && name != "" {
					seg = prefix + "." + name
				}
			}
			walk(item, seg, out)
		}
	}
}
