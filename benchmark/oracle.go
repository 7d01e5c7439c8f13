package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/dom"
	"repro/internal/rpeq"
	"repro/internal/xmlstream"
)

// FNV-1a, 64 bit. Answers are folded in delivery order, so a checksum also
// pins document order per query.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashIndex(h uint64, idx int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(idx >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// expectation is what one query must select: the answer count and a
// checksum over the answers' indexes (and, for serialized answers, their
// XML). indexes is kept for the live workload, which checks frames one by
// one as they arrive.
type expectation struct {
	count   int64
	sum     uint64
	indexes []int64
}

// oracle evaluates every query by a tree walk over the materialized
// document — never through the transducer network under test. withXML folds
// each answer's serialized subtree into the checksum.
func oracle(d *document, queries []string, withXML bool) ([]expectation, error) {
	// Text nodes only matter when answers are serialized; leaving them out
	// halves the tree for the markup-dense documents.
	root, err := dom.Build(xmlstream.ScanBytes(d.data, xmlstream.WithText(withXML)))
	if err != nil {
		return nil, fmt.Errorf("oracle: building the tree: %w", err)
	}
	out := make([]expectation, len(queries))
	for i, q := range queries {
		expr, err := rpeq.Parse(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: parsing %q: %w", q, err)
		}
		e := expectation{sum: fnvOffset}
		for _, n := range (baseline.TreeWalk{}).Eval(root, expr) {
			e.count++
			e.sum = hashIndex(e.sum, n.Index)
			if withXML {
				e.sum = hashString(e.sum, xmlstream.Serialize(n.Events()))
			}
			e.indexes = append(e.indexes, n.Index)
		}
		out[i] = e
	}
	return out, nil
}

// checkTally compares the oracle's answer indexes with the generator's own
// list of what it wrote.
func checkTally(e expectation, tally []int64) error {
	if int64(len(tally)) != e.count {
		return fmt.Errorf("oracle selects %d answers, the generator wrote %d", e.count, len(tally))
	}
	for i, idx := range tally {
		if e.indexes[i] != idx {
			return fmt.Errorf("answer %d: oracle selects element %d, the generator wrote %d", i, e.indexes[i], idx)
		}
	}
	return nil
}
