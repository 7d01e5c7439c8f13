package bench

import "math/rand"

// The subscription corpus of the repository benchmark's sdi_merged workload
// (benchmark/gen.go) and of spexgen -subs. Real subscription corpora are not
// independent — subscribers copy each other's queries, wrap them in extra
// qualifiers, or phrase the same selection differently — so the generator
// produces that overlap on purpose.

// sdiHeads and sdiLabels span the query space: every query is
// head[q1]...[qk].child with 0–2 qualifiers, all matching the DMOZ
// structure shape (Topic records carrying catid, Title, and probabilistic
// newsGroup/editor/link children).
var (
	sdiHeads  = []string{"_*.Topic", "RDF.Topic"}
	sdiLabels = []string{"catid", "Title", "newsGroup", "editor", "link"}
)

// SDISharedOverlap is the default corpus overlap probability.
const SDISharedOverlap = 0.6

// SharedSubscriptions returns n subscription queries over the DMOZ structure
// shape with tunable overlap: with probability `overlap` a query derives
// from an earlier one — an exact duplicate, an equivalent rephrasing (a
// nullable qualifier the canonicalizer eliminates), a contained narrowing
// (an extra structural qualifier), or a shared-spine/divergent-tail sibling.
// A fixed sprinkle of statically unsatisfiable subscriptions (contradictory
// attribute predicates) exercises pruning. Deterministic in (n, overlap,
// seed).
func SharedSubscriptions(n int, overlap float64, seed int64) []string {
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 1 {
		overlap = 1
	}
	rng := rand.New(rand.NewSource(seed))
	fresh := func() string {
		q := sdiHeads[rng.Intn(len(sdiHeads))]
		for k := rng.Intn(3); k > 0; k-- {
			q += "[" + sdiLabels[rng.Intn(len(sdiLabels))] + "]"
		}
		return q + "." + sdiLabels[rng.Intn(len(sdiLabels))]
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i%13 == 7 {
			// Statically unsatisfiable: an attribute cannot carry two
			// different values at once.
			out = append(out, fresh()+`[@spex="a" and @spex="b"]`)
			continue
		}
		if len(out) > 0 && rng.Float64() < overlap {
			base := out[rng.Intn(len(out))]
			switch rng.Intn(4) {
			case 0: // exact duplicate
				out = append(out, base)
			case 1: // equivalent: a nullable qualifier changes nothing
				out = append(out, base+"["+sdiLabels[rng.Intn(len(sdiLabels))]+"*]")
			case 2: // contained: one extra structural qualifier narrows it
				out = append(out, base+"["+sdiLabels[rng.Intn(len(sdiLabels))]+"]")
			default: // shared spine, divergent tail
				out = append(out, base+"."+sdiLabels[rng.Intn(len(sdiLabels))])
			}
			continue
		}
		out = append(out, fresh())
	}
	return out
}
