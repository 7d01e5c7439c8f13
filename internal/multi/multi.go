// Package multi evaluates several queries against one stream in a single
// pass — the selective-dissemination-of-information (SDI) scenario the
// paper's introduction motivates and its conclusion names as future work
// ("a single transducer network can be used for processing several queries
// having common subparts"). There is one engine and one wrapper around it:
//
//   - MergedSet compiles all queries through the query-set compiler
//     (internal/setcompile) into ONE network: equivalent queries collapse
//     onto one sink, unsatisfiable ones are pruned, and spexnet.BuildSet
//     hash-conses the common subexpressions of the rest, each feeding all
//     its consumers — the paper's multi-query optimization;
//   - ParallelSet shards the subscriptions over a worker pool: each shard
//     owns the MergedSet of its partition exclusively, the feeding
//     goroutine broadcasts batched event slices over bounded channels with
//     backpressure, and a single sink goroutine delivers OnHit callbacks in
//     per-subscription order — the scaling axis an SDI service with many
//     standing queries needs.
//
// The reference both are cross-validated against is not an engine of this
// package: it is one single-query evaluation per subscription
// (core.Plan.NewRun) and the DOM oracle.
package multi

import (
	"repro/internal/core"
	"repro/internal/spexnet"
)

// Subscription pairs a query with its answer callback. Name tags the
// subscription in results (e.g. a subscriber id).
type Subscription struct {
	Name  string
	Plan  *core.Plan
	OnHit func(sub string, r spexnet.Result)
}
