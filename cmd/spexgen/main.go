// Command spexgen generates the synthetic evaluation documents (stand-ins
// for MONDIAL, WordNet and DMOZ; see DESIGN.md §3) to stdout or a file.
//
// Usage:
//
//	spexgen -dataset mondial -scale 1 > mondial.xml
//	spexgen -dataset dmoz-structure -scale 1 -o dmoz.xml
//	spexgen -dataset tickets -scale 1 > tickets.xml   # attribute-bearing corpus (E20)
//	spexgen -dataset random -seed 7 -depth 6
//	spexgen -dataset recursive -depth 500
//	spexgen -info -dataset wordnet -scale 1
//
// Adversarial shapes (the resource-governor attack corpus; see DESIGN.md
// §9) are selected with -adversarial and sized with -n:
//
//	spexgen -adversarial deep -n 10000 > deep.xml
//	spexgen -adversarial fanout-late -n 100000 | spexbench ...
//	spexgen -adversarial list
//
// Subscription corpora (the overlapping query sets the repository
// benchmark's sdi_merged workload evaluates) are selected with -subs, one
// query per line; -overlap tunes how often a query derives from an earlier
// one:
//
//	spexgen -subs 256 -overlap 0.6 > corpus.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/dataset"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "spexgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spexgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name  = fs.String("dataset", "mondial", "dataset: mondial, wordnet, dmoz-structure, dmoz-content, tickets, random, recursive, ladder")
		scale = fs.Float64("scale", 1, "size multiplier; 1 approximates the paper's document")
		seed  = fs.Uint64("seed", 1, "seed for -dataset random")
		depth = fs.Int("depth", 6, "depth for random/recursive/ladder documents")
		out   = fs.String("o", "", "output file (default stdout)")
		info  = fs.Bool("info", false, "print element count and depth instead of the document")
		adv   = fs.String("adversarial", "", "adversarial shape: deep, fanout, fanout-late, qualbomb, emptyrun; or list")
		n     = fs.Int("n", 0, "size of the adversarial shape (0 = the golden-corpus size)")
		nsubs = fs.Int("subs", 0, "emit an overlapping subscription corpus of this many queries, one per line, instead of a document")
		ovlp  = fs.Float64("overlap", bench.SDISharedOverlap, "with -subs: probability that a query derives from an earlier one (duplicate, equivalent rephrasing, contained narrowing, or shared spine)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *nsubs > 0 {
		return emitSubs(*nsubs, *ovlp, int64(*seed), *out, stdout)
	}

	var doc *dataset.Doc
	if *adv != "" {
		if *adv == "list" {
			for _, c := range dataset.Adversarial() {
				fmt.Fprintf(stdout, "shape=%s size=%d query=%s want=%d\n", c.Doc.Name, c.Size, c.Query, c.Want)
			}
			return nil
		}
		var err error
		if doc, err = adversarialDoc(*adv, *n); err != nil {
			return err
		}
		return emit(doc, *info, *out, stdout)
	}
	switch *name {
	case "random":
		doc = dataset.RandomTree(*seed, *depth, 4, nil)
	case "recursive":
		doc = dataset.Recursive("a", *depth)
	case "ladder":
		doc = dataset.Ladder(*depth)
	default:
		doc = bench.Dataset(*name, *scale)
		if doc == nil {
			return fmt.Errorf("unknown dataset %q", *name)
		}
	}

	return emit(doc, *info, *out, stdout)
}

// adversarialDoc builds one adversarial shape; n of zero selects the size
// the golden corpus pins.
func adversarialDoc(shape string, n int) (*dataset.Doc, error) {
	size := func(d int) int {
		if n > 0 {
			return n
		}
		return d
	}
	switch shape {
	case "deep":
		return dataset.Deep(size(10_000)), nil
	case "fanout":
		return dataset.Fanout(size(1_000_000)), nil
	case "fanout-late":
		return dataset.FanoutLate(size(100_000)), nil
	case "qualbomb":
		return dataset.QualBomb(size(5_000)), nil
	case "emptyrun":
		return dataset.EmptyRun(size(1_000_000)), nil
	default:
		return nil, fmt.Errorf("unknown adversarial shape %q (want deep, fanout, fanout-late, qualbomb, emptyrun or list)", shape)
	}
}

// emitSubs writes an overlapping subscription corpus, one query per line.
func emitSubs(n int, overlap float64, seed int64, out string, stdout io.Writer) error {
	if overlap < 0 || overlap > 1 {
		return fmt.Errorf("-overlap must be in [0,1], got %g", overlap)
	}
	var w io.Writer = stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}
	for _, q := range bench.SharedSubscriptions(n, overlap, seed) {
		if _, err := fmt.Fprintln(w, q); err != nil {
			return err
		}
	}
	return nil
}

// emit writes the document (or its measurements) to the selected output.
func emit(doc *dataset.Doc, info bool, out string, stdout io.Writer) error {
	if info {
		i := doc.Info()
		fmt.Fprintf(stdout, "dataset=%s elements=%d maxdepth=%d events=%d\n",
			doc.Name, i.Elements, i.MaxDepth, i.Events)
		return nil
	}
	var w io.Writer = stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		w = bw
	}
	_, err := doc.WriteTo(w)
	return err
}
