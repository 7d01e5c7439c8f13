package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs all five workloads at a fiftieth of their input size, two
// rounds of 200 ms slots and the traced passes, and checks what the driver
// relies on: every metric BENCHMARK.json names is reported with a finite
// value, every answer equals the oracle's, and the trace is well formed.
func TestSmoke(t *testing.T) {
	var spans []spanRecord
	rep, err := run(config{seed: 7, seconds: 0.4, rounds: 2, scale: 0.02, trace: true}, workloadDefs, &spans)
	if err != nil {
		t.Fatal(err)
	}

	var contract struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	if len(contract.Workloads) != len(rep.Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(contract.Workloads), len(rep.Workloads))
	}
	for i, w := range rep.Workloads {
		if w.Name != contract.Workloads[i].Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.Name, contract.Workloads[i].Name)
		}
		if !w.Correct {
			t.Errorf("%s: answers differ from the oracle", w.Name)
		}
		if w.Attempted < 1 {
			t.Errorf("%s: no operation attempted", w.Name)
		}
		// Failed operations are logged, not asserted: a frame can be late on
		// a loaded test machine without anything being wrong.
		t.Logf("%s: %d operations, %d failed, %d set-ups, %d passes, %d latency samples", w.Name, w.Attempted, w.Failed, w.Setups, w.Passes, w.LatencySamples)
		check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
			if len(got) != len(want) {
				t.Errorf("%s: %d %s metrics reported, BENCHMARK.json names %d", w.Name, len(got), kind, len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				switch {
				case !name.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok:
					t.Errorf("%s: %s metric %s is not reported", w.Name, kind, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, v.Value)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s is in %q, BENCHMARK.json says %q", w.Name, m.Name, v.Unit, m.Unit)
				}
			}
		}
		check("end-to-end", w.EndToEnd, contract.EndToEnd)
		check("per-layer", w.PerLayer, contract.PerLayer)
		for _, m := range contract.EndToEnd {
			if w.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want above zero", w.Name, m.Name, w.EndToEnd[m.Name].Value)
			}
		}
	}
	if _, err := summarize(rep, true); err != nil {
		t.Error(err)
	}

	// The spans must survive a round trip through the file format, and every
	// span's parent must be a span of the same workload.
	data, err = json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	var back []spanRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	ids := map[string]map[int]bool{}
	for _, s := range back {
		if ids[s.Workload] == nil {
			ids[s.Workload] = map[int]bool{}
		}
		ids[s.Workload][s.ID] = true
	}
	for _, w := range rep.Workloads {
		if len(ids[w.Name]) == 0 {
			t.Errorf("%s: no spans", w.Name)
		}
	}
	for _, s := range back {
		if s.Parent != 0 && !ids[s.Workload][s.Parent] {
			t.Errorf("%s: span %d (%s) has no parent %d", s.Workload, s.ID, s.Name, s.Parent)
		}
		if s.EndNs < s.StartNs {
			t.Errorf("%s: span %d (%s) ends before it starts", s.Workload, s.ID, s.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{parent: 0, name: "pass", start: 0, end: 100},
		{parent: 1, name: "a", start: 10, end: 40},
		{parent: 1, name: "b", start: 30, end: 60}, // overlaps a
		{parent: 2, name: "c", start: 15, end: 20},
	}}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"pass": 50, "a": 25, "b": 30, "c": 5} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
}
