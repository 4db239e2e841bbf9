package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// promIndex folds parsed samples into a map keyed by name plus sorted
// labels, for order-independent lookups.
func promIndex(samples []PromSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		keys := make([]string, 0, len(s.Labels))
		for k := range s.Labels {
			keys = append(keys, k)
		}
		// small maps; insertion sort for determinism
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		key := s.Name
		for _, k := range keys {
			key += fmt.Sprintf("|%s=%s", k, s.Labels[k])
		}
		out[key] = s.Value
	}
	return out
}

// TestPrometheusRoundTrip renders a registry with every instrument kind —
// including name-embedded labels and an attached child registry — and
// parses the exposition back, checking values, label merges, cumulative
// buckets, and the +Inf bound.
func TestPrometheusRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.jobs_admitted").Add(7)
	reg.Counter(`fleet.steals{src="1",dst="0"}`).Add(3)
	reg.Gauge(`fleet.device_inuse_bytes{device="0"}`).Set(4096)
	h := reg.Histogram("serve.queue_wait_ms", 1, 10, 100)
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5000)

	child := NewRegistry()
	child.Counter("core.pairs").Add(42)
	child.Counter(`graph.nnz{backend="succinct"}`).Add(9)
	reg.AttachChild(`job="j42"`, child)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	types, samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("rendered exposition does not parse: %v\n%s", err, buf.String())
	}

	wantTypes := map[string]string{
		"serve_jobs_admitted":      "counter",
		"fleet_steals":             "counter",
		"fleet_device_inuse_bytes": "gauge",
		"serve_queue_wait_ms":      "histogram",
		"core_pairs":               "counter",
		"graph_nnz":                "counter",
	}
	for name, typ := range wantTypes {
		if types[name] != typ {
			t.Errorf("TYPE %s = %q, want %q", name, types[name], typ)
		}
	}

	idx := promIndex(samples)
	checks := map[string]float64{
		"serve_jobs_admitted":                7,
		"fleet_steals|dst=0|src=1":           3,
		"fleet_device_inuse_bytes|device=0":  4096,
		"core_pairs|job=j42":                 42,
		"graph_nnz|backend=succinct|job=j42": 9,
		"serve_queue_wait_ms_bucket|le=1":    1,
		"serve_queue_wait_ms_bucket|le=10":   2,
		"serve_queue_wait_ms_bucket|le=100":  2,
		"serve_queue_wait_ms_bucket|le=+Inf": 3,
		"serve_queue_wait_ms_count":          3,
		"serve_queue_wait_ms_sum":            5005.5,
	}
	for key, want := range checks {
		got, ok := idx[key]
		if !ok {
			t.Errorf("sample %q missing from exposition:\n%s", key, buf.String())
			continue
		}
		if got != want {
			t.Errorf("sample %q = %v, want %v", key, got, want)
		}
	}
	if !strings.Contains(buf.String(), `le="+Inf"`) {
		t.Error("exposition has no +Inf bucket bound")
	}
}

// TestPrometheusLabelEscaping pins the escaping rules: quotes,
// backslashes, and newlines in label values survive a render/parse
// round trip.
func TestPrometheusLabelEscaping(t *testing.T) {
	weird := "ten\"ant\\one\nline2"
	reg := NewRegistry()
	reg.Counter(fmt.Sprintf("serve.jobs{tenant=%q}", weird)).Add(1)

	child := NewRegistry()
	child.Gauge("x").Set(5)
	reg.AttachChild(fmt.Sprintf("job=%q", `j"quote`), child)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != strings.Count(out, "\n") || strings.Contains(out, "ten\"ant") {
		t.Errorf("unescaped quote leaked into exposition:\n%s", out)
	}
	_, samples, err := ParsePrometheus(strings.NewReader(out))
	if err != nil {
		t.Fatalf("escaped exposition does not parse: %v\n%s", err, out)
	}
	found := false
	for _, s := range samples {
		if s.Name == "serve_jobs" {
			found = true
			if s.Labels["tenant"] != weird {
				t.Errorf("tenant label = %q, want %q", s.Labels["tenant"], weird)
			}
		}
		if s.Name == "x" && s.Labels["job"] != `j"quote` {
			t.Errorf("job label = %q, want %q", s.Labels["job"], `j"quote`)
		}
	}
	if !found {
		t.Fatalf("serve_jobs sample missing:\n%s", out)
	}
}

// TestPrometheusEmptyRegistry: an empty snapshot renders to an empty
// (but valid) document.
func TestPrometheusEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, NewRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	types, samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != 0 || len(samples) != 0 {
		t.Errorf("empty registry rendered %d types / %d samples: %q", len(types), len(samples), buf.String())
	}
	// A nil-registry snapshot renders identically.
	buf.Reset()
	var nilReg *Registry
	if err := WritePrometheus(&buf, nilReg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry rendered %q", buf.String())
	}
}

// TestPrometheusHistogramChildMerge: a histogram inside a child registry
// carries the child label on every _bucket/_sum/_count series.
func TestPrometheusHistogramChildMerge(t *testing.T) {
	reg := NewRegistry()
	child := NewRegistry()
	ch := child.Histogram("gpu.alloc_wait_seconds", 0.1, 1)
	ch.Observe(0.05)
	ch.Observe(50)
	reg.AttachChild(`job="jx"`, child)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	_, samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	idx := promIndex(samples)
	for key, want := range map[string]float64{
		"gpu_alloc_wait_seconds_bucket|job=jx|le=0.1":  1,
		"gpu_alloc_wait_seconds_bucket|job=jx|le=1":    1,
		"gpu_alloc_wait_seconds_bucket|job=jx|le=+Inf": 2,
		"gpu_alloc_wait_seconds_count|job=jx":          2,
		"gpu_alloc_wait_seconds_sum|job=jx":            50.05,
	} {
		if got, ok := idx[key]; !ok || got != want {
			t.Errorf("sample %q = %v (present=%v), want %v\n%s", key, got, ok, want, buf.String())
		}
	}
}

func TestParseInstrumentNameEdgeCases(t *testing.T) {
	cases := []struct {
		in       string
		wantBase string
		wantLbls map[string]string
	}{
		{"plain.name", "plain.name", nil},
		{`a{b="c"}`, "a", map[string]string{"b": "c"}},
		{`a{b="c",d="e"}`, "a", map[string]string{"b": "c", "d": "e"}},
		{`a{b="c"}{job="j"}`, "a", map[string]string{"b": "c", "job": "j"}},
		{`a{b="c"}{b="z"}`, "a", map[string]string{"b": "z"}}, // later block wins
		{`a{b="with{brace}"}`, "a", map[string]string{"b": "with{brace}"}},
		{`broken{b=}`, `broken{b=}`, nil},         // malformed: whole name is the base
		{`broken{b="c"`, `broken{b="c"`, nil},     // unterminated block
		{`broken{b="c"}x`, `broken{b="c"}x`, nil}, // trailing junk
	}
	for _, c := range cases {
		base, labels := parseInstrumentName(c.in)
		if base != c.wantBase {
			t.Errorf("parseInstrumentName(%q) base = %q, want %q", c.in, base, c.wantBase)
		}
		got := map[string]string{}
		for _, l := range labels {
			got[l.name] = l.value
		}
		if len(got) != len(c.wantLbls) {
			t.Errorf("parseInstrumentName(%q) labels = %v, want %v", c.in, got, c.wantLbls)
			continue
		}
		for k, v := range c.wantLbls {
			if got[k] != v {
				t.Errorf("parseInstrumentName(%q) label %s = %q, want %q", c.in, k, got[k], v)
			}
		}
	}
}

// TestPromValueInfinities pins the +Inf spelling both ways.
func TestPromValueInfinities(t *testing.T) {
	if formatPromFloat(math.Inf(1)) != "+Inf" || formatPromFloat(math.Inf(-1)) != "-Inf" {
		t.Error("formatPromFloat infinity spellings wrong")
	}
	v, err := parsePromValue("+Inf")
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("parsePromValue(+Inf) = %v, %v", v, err)
	}
}
