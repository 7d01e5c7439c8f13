package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/xmlstream"
)

// The ingest ablation (spexbench -fig ingest) measures the scanner alone —
// no transducer network attached — in the three configurations the rebuilt
// ingest path offers, answering "what did each layer buy":
//
//	seed      the original buffered per-byte scanner (WithSeedScan)
//	zerocopy  the memchr-driven zero-copy scanner over in-memory bytes
//	parallel  the zero-copy scanner chunk-scanning the document in parallel
//
// Every mode drains the identical byte slice to EOF with full fidelity
// (text and attribute events on), so events/s and GB/s compare the scanning
// machinery and nothing else.

// IngestModes lists the ablation's scanner configurations in report order.
var IngestModes = []string{"seed", "zerocopy", "parallel"}

// IngestMeasurement is one (dataset, scanner mode) cell of the ablation.
type IngestMeasurement struct {
	Mode    string // "seed", "zerocopy" or "parallel"
	Dataset string
	Workers int // parallel worker count (0 outside parallel mode)
	Bytes   int64
	Events  int64
	Elapsed time.Duration
	// Hash fingerprints the full event stream (kind, name, text, attrs in
	// order); identical across modes iff the streams are identical. Zero
	// when the run was not checked.
	Hash uint64
}

// EventsPerSec is the mode's throughput on the events axis.
func (m IngestMeasurement) EventsPerSec() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Events) / m.Elapsed.Seconds()
}

// GBPerSec is the mode's throughput on the bytes axis.
func (m IngestMeasurement) GBPerSec() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Bytes) / m.Elapsed.Seconds() / 1e9
}

// ingestSource builds the mode's scanner over data.
func ingestSource(mode string, data []byte, workers int) xmlstream.Source {
	switch mode {
	case "seed":
		return xmlstream.NewScanner(bytes.NewReader(data), xmlstream.WithSeedScan(true))
	case "zerocopy":
		return xmlstream.ScanBytes(data)
	case "parallel":
		return xmlstream.NewParallelScanner(data, workers)
	default:
		panic("bench: unknown ingest mode " + mode)
	}
}

// drainCount streams src to EOF, counting events — the timed loop.
func drainCount(src xmlstream.Source) (int64, error) {
	var n int64
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// drainHash streams src to EOF, folding every event into an FNV-1a
// fingerprint — the differential pass behind -check. Symbols are excluded
// (each mode interns into its own table); names and values are what must
// agree byte for byte.
func drainHash(src xmlstream.Source) (uint64, int64, error) {
	h := fnv.New64a()
	var n int64
	var sep = [1]byte{0}
	for {
		ev, err := src.Next()
		if err == io.EOF {
			return h.Sum64(), n, nil
		}
		if err != nil {
			return 0, n, err
		}
		n++
		h.Write([]byte{byte(ev.Kind)})
		io.WriteString(h, ev.Name)
		h.Write(sep[:])
		io.WriteString(h, ev.Data)
		h.Write(sep[:])
		for _, a := range ev.Attrs {
			io.WriteString(h, a.Name)
			h.Write(sep[:])
			io.WriteString(h, a.Value)
			h.Write(sep[:])
		}
	}
}

// ingestReps is how many timed drains each cell runs; the fastest is
// reported, damping scheduler noise the same way testing.B's minimum does.
const ingestReps = 3

// RunIngest measures the ablation over the DMOZ dumps (the paper's largest
// corpora) at the given scale. workers sets the parallel mode's chunk-scan
// width (<=0 = one per CPU). When check is true every cell also runs an
// untimed differential pass and fills Hash, so the caller can verify the
// three modes produced byte-identical event streams.
func RunIngest(scale float64, workers int, check bool, progress io.Writer) ([]IngestMeasurement, error) {
	var out []IngestMeasurement
	for _, name := range []string{"dmoz-structure", "dmoz-content"} {
		data := Dataset(name, scale).Bytes()
		for _, mode := range IngestModes {
			w := 0
			if mode == "parallel" {
				w = workers
			}
			m := IngestMeasurement{Mode: mode, Dataset: name, Workers: w, Bytes: int64(len(data))}
			for rep := 0; rep < ingestReps; rep++ {
				start := time.Now()
				n, err := drainCount(ingestSource(mode, data, w))
				elapsed := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("ingest %s/%s: %w", name, mode, err)
				}
				if rep == 0 || elapsed < m.Elapsed {
					m.Elapsed = elapsed
				}
				m.Events = n
			}
			if check {
				h, n, err := drainHash(ingestSource(mode, data, w))
				if err != nil {
					return nil, fmt.Errorf("ingest check %s/%s: %w", name, mode, err)
				}
				if n != m.Events {
					return nil, fmt.Errorf("ingest check %s/%s: %d events on the check pass, %d timed", name, mode, n, m.Events)
				}
				m.Hash = h
			}
			if progress != nil {
				fmt.Fprintf(progress, "  %s %-8s %8d events in %v (%.2fM events/s, %.3f GB/s)\n",
					name, m.Mode, m.Events, m.Elapsed.Round(time.Microsecond),
					m.EventsPerSec()/1e6, m.GBPerSec())
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// CheckIngest enforces the ablation's acceptance bar on a checked run: per
// dataset, all three modes must have produced the identical event stream
// (equal counts and fingerprints), and the zero-copy scanner must clear 2×
// the seed scanner's events/s — the hardware-speed claim, falsified here
// rather than asserted.
func CheckIngest(ms []IngestMeasurement) error {
	byDataset := map[string]map[string]IngestMeasurement{}
	for _, m := range ms {
		if byDataset[m.Dataset] == nil {
			byDataset[m.Dataset] = map[string]IngestMeasurement{}
		}
		byDataset[m.Dataset][m.Mode] = m
	}
	for ds, modes := range byDataset {
		seed, ok := modes["seed"]
		if !ok {
			return fmt.Errorf("ingest check %s: no seed measurement", ds)
		}
		if seed.Events == 0 {
			return fmt.Errorf("ingest check %s: zero events", ds)
		}
		for _, mode := range IngestModes[1:] {
			m, ok := modes[mode]
			if !ok {
				return fmt.Errorf("ingest check %s: no %s measurement", ds, mode)
			}
			if m.Events != seed.Events || m.Hash != seed.Hash {
				return fmt.Errorf("ingest check %s: %s stream differs from seed (events %d vs %d, hash %#x vs %#x)",
					ds, mode, m.Events, seed.Events, m.Hash, seed.Hash)
			}
		}
		zc := modes["zerocopy"]
		if ratio := zc.EventsPerSec() / seed.EventsPerSec(); ratio < 2 {
			return fmt.Errorf("ingest check %s: zero-copy is only %.2fx the seed scanner (want >= 2x)", ds, ratio)
		}
	}
	return nil
}

// IngestMeasurements converts the ablation's cells to harness measurements
// so the JSON report shares the figures' row schema: engine
// "ingest-<mode>", query "scan", elements = events.
func IngestMeasurements(ms []IngestMeasurement) []Measurement {
	out := make([]Measurement, 0, len(ms))
	for _, m := range ms {
		out = append(out, Measurement{
			Engine:   Engine("ingest-" + m.Mode),
			Dataset:  m.Dataset,
			Query:    "scan",
			Elements: m.Events,
			Elapsed:  m.Elapsed,
		})
	}
	return out
}

// WriteIngestTable renders the ablation for humans: per dataset and mode,
// events/s and GB/s, with each mode's speedup over the seed scanner.
func WriteIngestTable(w io.Writer, ms []IngestMeasurement) {
	fmt.Fprintf(w, "\nIngest ablation: scanner throughput (full fidelity, no network attached)\n\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "dataset\tmode\tevents\tMB\telapsed\tMevents/s\tGB/s\tvs seed\n")
	seed := map[string]IngestMeasurement{}
	for _, m := range ms {
		if m.Mode == "seed" {
			seed[m.Dataset] = m
		}
	}
	for _, m := range ms {
		mode := m.Mode
		if m.Mode == "parallel" {
			mode = fmt.Sprintf("parallel:%d", m.Workers)
		}
		speedup := "-"
		if s, ok := seed[m.Dataset]; ok && m.Mode != "seed" && s.EventsPerSec() > 0 {
			speedup = fmt.Sprintf("%.2fx", m.EventsPerSec()/s.EventsPerSec())
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%s\t%.2f\t%.3f\t%s\n",
			m.Dataset, mode, m.Events, float64(m.Bytes)/(1<<20),
			m.Elapsed.Round(time.Microsecond), m.EventsPerSec()/1e6, m.GBPerSec(), speedup)
	}
	tw.Flush()
}
