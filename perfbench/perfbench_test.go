package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shortRun runs one workload for a short measured window and returns its
// result and the parsed JSON result line.
func shortRun(t *testing.T, name string, trace bool, drop int) (*Result, map[string]any) {
	t.Helper()
	p := Params{Workload: name, Seed: 5, Seconds: 1.5, Trace: trace, DataDir: t.TempDir(), Drop: drop}
	res, err := run(workloads[name], p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, p, res); err != nil {
		t.Fatalf("%s: emit: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", name, err)
	}
	return res, out
}

// TestEveryMetricEmitted runs each workload briefly, untraced and traced,
// and checks that every metric BENCHMARK.json names comes out with its
// unit, and that the run's correctness checks pass.
func TestEveryMetricEmitted(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayerNames()) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(perLayerNames()))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, out := shortRun(t, w.Name, trace, 0)
			if out["correct"] != true || len(res.Checks) > 0 {
				t.Errorf("%s trace=%v: not correct: %v", w.Name, trace, res.Checks)
			}
			metrics, _ := out["metrics"].(map[string]any)
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", w.Name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name].(map[string]any)
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got["unit"] != m.Unit {
					t.Errorf("%s trace=%v: %s unit %v, want %s", w.Name, trace, m.Name, got["unit"], m.Unit)
				}
				if _, ok := got["value"].(float64); !ok {
					t.Errorf("%s trace=%v: %s has no numeric value", w.Name, trace, m.Name)
				}
			}
		}
	}
}

// TestDroppedStoreIsCaught makes the store path silently lose one store
// and checks that the workload's correctness checks notice.
func TestDroppedStoreIsCaught(t *testing.T) {
	for name := range workloads {
		res, out := shortRun(t, name, false, 40)
		if len(res.Checks) == 0 || out["correct"] != false {
			t.Errorf("%s: a silently dropped store passed every check", name)
		} else {
			t.Logf("%s: caught: %v", name, res.Checks)
		}
	}
}
