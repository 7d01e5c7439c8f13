package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestIngestAblationShape runs the ingest ablation at tiny scale and checks
// its structural guarantees: all three scanner modes drain the corpora to
// identical event streams (counts and fingerprints — the differential claim
// behind -check, minus the throughput bar, which only a full-scale run can
// judge), and the measurements convert cleanly into the shared JSON row
// schema.
func TestIngestAblationShape(t *testing.T) {
	ms, err := RunIngest(0.002, 2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*len(IngestModes) {
		t.Fatalf("%d measurements, want %d", len(ms), 2*len(IngestModes))
	}
	seed := map[string]IngestMeasurement{}
	for _, m := range ms {
		if m.Mode == "seed" {
			seed[m.Dataset] = m
		}
	}
	for _, m := range ms {
		s := seed[m.Dataset]
		if m.Events == 0 || m.Hash == 0 {
			t.Errorf("%s/%s: empty cell %+v", m.Dataset, m.Mode, m)
		}
		if m.Events != s.Events || m.Hash != s.Hash {
			t.Errorf("%s/%s: stream differs from seed (events %d vs %d, hash %#x vs %#x)",
				m.Dataset, m.Mode, m.Events, s.Events, m.Hash, s.Hash)
		}
	}

	rows := IngestMeasurements(ms)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(ms) {
		t.Fatalf("%d JSON rows, want %d", len(decoded), len(ms))
	}
	if eng, _ := decoded[0]["engine"].(string); !strings.HasPrefix(eng, "ingest-") {
		t.Fatalf("JSON row engine = %q, want ingest-* prefix", decoded[0]["engine"])
	}

	var table strings.Builder
	WriteIngestTable(&table, ms)
	for _, want := range []string{"dmoz-structure", "dmoz-content", "zerocopy", "parallel:2"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("ablation table missing %q:\n%s", want, table.String())
		}
	}
}
