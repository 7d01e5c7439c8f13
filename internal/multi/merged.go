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
	cfg    engineConfig
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
// one merged network. The set stands: it evaluates one document at a time,
// Rewind between them.
func NewMergedSet(subs []Subscription, opts ...Option) (*MergedSet, error) {
	return newMergedSetSym(subs, xmlstream.NewSymtab(), resolveOptions(opts))
}

// newMergedSetSym builds the set against a caller-provided symbol table —
// the parallel wrapper passes its pool-wide table so all shards share one
// symbol space and the feeder can pre-resolve events once for everyone.
func newMergedSetSym(subs []Subscription, symtab *xmlstream.Symtab, cfg engineConfig) (*MergedSet, error) {
	if len(subs) == 0 {
		return nil, fmt.Errorf("multi: no subscriptions")
	}
	queries := make([]setcompile.Query, len(subs))
	for i := range subs {
		queries[i] = setcompile.Query{Name: subs[i].Name, Expr: subs[i].Plan.Expr(), Limit: subs[i].Plan.Limit()}
	}
	prog := setcompile.Compile(queries)
	s := &MergedSet{
		subs:       subs,
		cfg:        cfg,
		prog:       prog,
		symtab:     symtab,
		memberHits: make([]int64, len(subs)),
		repHits:    make([]int64, len(prog.Reps)),
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	return s, nil
}

// build instantiates the set's program as its network. The program and the
// symbol table outlive a network: one that a document left unclean is dropped
// and built again from them (Rewind), through the same builder.
func (s *MergedSet) build() error {
	prog := s.prog
	if len(prog.Reps) == 0 {
		// Every query is statically unsatisfiable: the answer — all
		// empty — is known before the stream starts and no network exists.
		return nil
	}
	specs := make([]spexnet.Spec, len(prog.Reps))
	for ri := range prog.Reps {
		rep := prog.Reps[ri]
		ri := ri
		members := rep.Members
		specs[ri] = spexnet.Spec{
			Expr:  rep.Expr,
			Mode:  spexnet.ModeNodes,
			Name:  s.subs[members[0]].Name,
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
		Symtab:          s.symtab,
		Governor:        s.cfg.gov,
		GovernorMetrics: s.cfg.metrics,
		SinkMetrics:     s.cfg.metrics,
		TraceID:         s.cfg.traceID,
	})
	if err != nil {
		return err
	}
	s.net = net
	s.run = core.RunNetwork(net)
	return nil
}

// Rewind readies the set for its next document. A network that ran the last
// one to its end with nothing cut short (spexnet.Network.Clean) is rewound and
// goes on with everything it has built; after anything else — malformed input,
// a cancelled or failed pass, a governor trip, answer limits that released the
// network early, a callback that panicked — the network is dropped and built
// again from the set's program. Either way the next document meets the state a
// new set would have, and the symbol table keeps its names.
func (s *MergedSet) Rewind() error {
	clear(s.memberHits)
	clear(s.repHits)
	if s.run == nil || s.run.Rewind() {
		return nil
	}
	return s.build()
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

// MemberCounts writes the per-subscription answer counts into dst, in
// subscription order, growing it if it is short, and returns it. Members of
// a collapsed sink are attributed individually: each reports the shared
// sink's deliveries capped at its own answer limit, so a query's count is
// identical to what its private network would have reported. Sink-side
// counts (which survive governor degradation) are reconciled with the
// delivery counts per representative.
func (s *MergedSet) MemberCounts(dst []int64) []int64 {
	dst = append(dst[:0], s.memberHits...)
	if s.net == nil {
		return dst
	}
	for mi := range s.prog.Members {
		m := &s.prog.Members[mi]
		if m.Rep < 0 {
			continue
		}
		rep := s.net.SinkMatches(m.Rep)
		if m.Limit > 0 && rep > m.Limit {
			rep = m.Limit
		}
		if rep > dst[mi] {
			dst[mi] = rep
		}
	}
	return dst
}

// Matches returns MemberCounts keyed by subscription name.
func (s *MergedSet) Matches() map[string]int64 {
	out := make(map[string]int64, len(s.subs))
	for mi, n := range s.MemberCounts(nil) {
		out[s.prog.Members[mi].Name] = n
	}
	return out
}
