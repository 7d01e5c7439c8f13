package multi

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/setcompile"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// MergedSet evaluates a collection of subscriptions through one network
// compiled by the query-set compiler (internal/setcompile): subscriptions
// are canonicalized so equivalent ones become structurally identical,
// statically unsatisfiable ones are pruned before any transducer exists,
// and equivalent ones collapse onto one physical sink whose answers are
// remapped to every member. What remains compiles into a single network
// whose hash-consing shares the corpus's common prefixes and
// subexpressions — the YFilter-scale sharing the paper's §IX sketches.
//
// Answers are byte-identical to evaluating every query on its own: only
// provably equivalent queries share a sink, and each member's deliveries
// are capped at its own answer limit even when the shared sink runs longer.
type MergedSet struct {
	subs   []Subscription
	prog   *setcompile.Program
	net    *spexnet.Network // nil when every query is pruned
	run    *core.Run        // the push-mode lifecycle around net; nil with it
	symtab *xmlstream.Symtab
	// memberHits counts deliveries per member (capped at the member's own
	// limit); repHits counts raw deliveries per representative sink.
	memberHits []int64
	repHits    []int64
}

// NewMergedSet compiles all subscriptions through the set compiler into
// one merged network.
func NewMergedSet(subs []Subscription, opts ...Option) (*MergedSet, error) {
	return NewMergedSetFrom(subs, nil, opts...)
}

// NewMergedSetFrom builds the merged network of a set that is already
// compiled: prog must be Compile(subs) for these same subscriptions (nil
// compiles here). A caller evaluating one immutable set over many documents
// compiles it once — the program is a pure function of the queries — and
// builds a fresh single-use network per document from it.
func NewMergedSetFrom(subs []Subscription, prog *setcompile.Program, opts ...Option) (*MergedSet, error) {
	return newMergedSetSym(subs, prog, xmlstream.NewSymtab(), resolveOptions(opts))
}

// Compile runs the set compiler's static pre-pass over the subscriptions'
// queries.
func Compile(subs []Subscription) *setcompile.Program {
	queries := make([]setcompile.Query, len(subs))
	for i := range subs {
		queries[i] = setcompile.Query{Name: subs[i].Name, Expr: subs[i].Plan.Expr(), Limit: subs[i].Plan.Limit()}
	}
	return setcompile.Compile(queries)
}

// newMergedSetSym builds the set against a caller-provided symbol table —
// the parallel wrapper passes its pool-wide table so all shards share one
// symbol space and the feeder can pre-resolve events once for everyone.
func newMergedSetSym(subs []Subscription, prog *setcompile.Program, symtab *xmlstream.Symtab, cfg engineConfig) (*MergedSet, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("multi: no subscriptions")
	}
	if prog == nil {
		prog = Compile(subs)
	} else if len(prog.Members) != len(subs) {
		return nil, fmt.Errorf("multi: program compiled for %d queries, set has %d subscriptions", len(prog.Members), len(subs))
	}
	s := &MergedSet{
		subs:       subs,
		prog:       prog,
		symtab:     symtab,
		memberHits: make([]int64, len(subs)),
		repHits:    make([]int64, len(prog.Reps)),
	}
	if len(prog.Reps) == 0 {
		// Every query is statically unsatisfiable: the answer — all
		// empty — is known before the stream starts and no network exists.
		return s, nil
	}
	specs := make([]spexnet.Spec, len(prog.Reps))
	for ri := range prog.Reps {
		rep := prog.Reps[ri]
		ri := ri
		members := rep.Members
		specs[ri] = spexnet.Spec{
			Expr:  rep.Expr,
			Mode:  spexnet.ModeNodes,
			Name:  subs[members[0]].Name,
			Limit: rep.Limit,
			Sink: func(r spexnet.Result) {
				s.repHits[ri]++
				for _, mi := range members {
					lim := s.prog.Members[mi].Limit
					if lim > 0 && s.memberHits[mi] >= lim {
						// This member's own budget is exhausted; the sink
						// keeps running for members with larger budgets.
						continue
					}
					s.memberHits[mi]++
					if sub := &s.subs[mi]; sub.OnHit != nil {
						sub.OnHit(sub.Name, r)
					}
				}
			},
		}
	}
	net, err := spexnet.BuildSet(specs, spexnet.Options{
		Symtab:          symtab,
		Governor:        cfg.gov,
		GovernorMetrics: cfg.metrics,
		SinkMetrics:     cfg.metrics,
		TraceID:         cfg.traceID,
	})
	if err != nil {
		return nil, err
	}
	s.net = net
	s.run = core.RunNetwork(net)
	return s, nil
}

// Symtab returns the set-wide symbol table, for feeders that want to share
// it with their scanner so events arrive pre-resolved.
func (s *MergedSet) Symtab() *xmlstream.Symtab { return s.symtab }

// Degree returns the number of transducers in the merged network; zero
// when every query was pruned.
func (s *MergedSet) Degree() int {
	if s.net == nil {
		return 0
	}
	return s.net.Degree()
}

// Stats returns the merged network's evaluation statistics so far (zero when
// every query was pruned): events, deliveries, stack and formula peaks.
func (s *MergedSet) Stats() spexnet.Stats {
	if s.run == nil {
		return spexnet.Stats{}
	}
	return s.run.Stats()
}

// MergeStats returns the static pre-pass statistics: naive vs merged
// transducer counts and the pruned/collapsed/contained query tallies.
func (s *MergedSet) MergeStats() setcompile.MergeStats { return s.prog.Stats }

// Program exposes the compiled set plan, for introspection.
func (s *MergedSet) Program() *setcompile.Program { return s.prog }

// Feed pushes one event through the merged network; the document
// boundaries, early release and end-of-stream validation are core.Run's.
func (s *MergedSet) Feed(ev xmlstream.Event) error {
	if s.run == nil {
		return nil
	}
	return s.run.Feed(ev)
}

// Determined reports whether every subscription's answer is fixed. Pruned
// subscriptions are determined from the start — their answer is statically
// empty — so a set whose every member is pruned is determined before the
// first event.
func (s *MergedSet) Determined() bool {
	return s.run == nil || s.run.Determined()
}

// Run drains the source and closes the set. When every subscription reaches
// its answer limit the source is disconnected at the determining event; when
// the whole answer is known statically (every query pruned) the stream is
// not read at all.
func (s *MergedSet) Run(src xmlstream.Source) error {
	if s.run == nil {
		return nil
	}
	for !s.run.Determined() {
		ev, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := s.run.Feed(ev); err != nil {
			return err
		}
	}
	return s.run.Close()
}

// Close ends the stream and validates the evaluation.
func (s *MergedSet) Close() error {
	if s.run == nil {
		return nil
	}
	return s.run.Close()
}

// Matches returns per-subscription answer counts keyed by name. Members of
// a collapsed sink are attributed individually: each reports the shared
// sink's deliveries capped at its own answer limit, so a query's count is
// identical to what its private network would have reported. Sink-side
// counts (which survive governor degradation) are reconciled with the
// delivery counts per representative.
func (s *MergedSet) Matches() map[string]int64 {
	out := make(map[string]int64, len(s.subs))
	var sinks []spexnet.OutputStats
	if s.net != nil {
		sinks = s.net.SinkStats()
	}
	for mi := range s.prog.Members {
		m := &s.prog.Members[mi]
		n := s.memberHits[mi]
		if m.Rep >= 0 && m.Rep < len(sinks) {
			rep := sinks[m.Rep].Matches
			if m.Limit > 0 && rep > m.Limit {
				rep = m.Limit
			}
			if rep > n {
				n = rep
			}
		}
		out[m.Name] = n
	}
	return out
}
