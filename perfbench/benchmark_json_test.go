package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which declares
// the benchmark, in step with the tables the benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var wls [][2]string
	for _, w := range f.Workloads {
		wls = append(wls, [2]string{w.Name, w.Why})
	}
	var want [][2]string
	for _, w := range workloads {
		want = append(want, [2]string{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(wls, want) {
		t.Errorf("workloads differ:\nBENCHMARK.json %q\ntables         %q", wls, want)
	}

	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}
