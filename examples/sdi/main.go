// Selective dissemination of information (SDI), the scenario of the
// paper's introduction: subscribers register path queries; a stream of
// structured messages is filtered in one pass and every subscriber is
// notified of the messages matching its profile — without ever storing the
// stream.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/spexnet"
	"repro/internal/xmlstream"
)

// feed is a newsfeed of messages; in a real deployment this arrives over
// the network, unbounded.
const feed = `<feed>
  <msg><sport/><title>cup final tonight</title></msg>
  <msg><politics/><title>election results</title></msg>
  <msg><sport/><title>transfer rumours</title><exclusive/></msg>
  <msg><weather/><title>rain tomorrow</title></msg>
  <msg><politics/><exclusive/><title>coalition talks</title></msg>
</feed>`

func main() {
	// Subscriber profiles, as rpeq filters over message structure.
	profiles := map[string]string{
		"alice (sport)":      "feed.msg[sport]",
		"bob (politics)":     "feed.msg[politics]",
		"carol (exclusives)": "_*.msg[exclusive]",
		"dave (sport excl.)": "feed.msg[sport][exclusive]",
	}

	var subs []multi.Subscription
	for name, expr := range profiles {
		plan, err := core.Prepare(expr)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		subs = append(subs, multi.Subscription{
			Name: name,
			Plan: plan,
			OnHit: func(sub string, r spexnet.Result) {
				fmt.Printf("deliver message #%d to %s\n", r.Index, sub)
			},
		})
	}

	// All profiles evaluate in ONE pass through ONE merged transducer
	// network (§IX's multi-query optimization): the set compiler collapses
	// equivalent profiles onto one sink, and the common feed.msg prefix is
	// compiled and evaluated once for all subscribers.
	set, err := multi.NewMergedSet(subs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d profiles share a network of %d transducers\n\n", len(subs), set.Degree())
	if err := set.Run(xmlstream.NewScanner(strings.NewReader(feed))); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ndelivery counts:")
	for name, n := range set.Matches() {
		fmt.Printf("  %-22s %d\n", name, n)
	}

	// At service scale the same subscriptions run on a sharded worker
	// pool: each shard owns the merged network of its partition, the feeder
	// broadcasts batched events over bounded channels, and a single sink
	// goroutine delivers the callbacks — per-subscriber order preserved,
	// answers identical to the inline set above.
	pool, err := multi.NewParallelSet(subs, multi.ParallelOptions{Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nparallel pool: %d shards\n", pool.Shards())
	if err := pool.Run(xmlstream.NewScanner(strings.NewReader(feed))); err != nil {
		log.Fatal(err)
	}
}
