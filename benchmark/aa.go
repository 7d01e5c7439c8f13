package main

import (
	"fmt"
	"math"
)

// runAA repeats the end-to-end measurement n times on consecutive seeds and
// prints, per workload and metric, the median, the quartiles, their distance
// as a share of the median (the spread the regression bound has to cover),
// and the largest relative deviation from the median.
func runAA(c config, defs []workloadDef, n int) error {
	c.trace = false
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		ci := c
		ci.seed = c.seed + int64(i)
		rep, err := run(ci, defs, nil)
		if err != nil {
			return err
		}
		for _, w := range rep.Workloads {
			if !w.Correct {
				return fmt.Errorf("%s: answers differ from the oracle on seed %d", w.Name, ci.seed)
			}
			for name, m := range w.EndToEnd {
				key := w.Name + "/" + name
				values[key] = append(values[key], m.Value)
			}
		}
		fmt.Printf("run %d of %d done (seed %d)\n", i+1, n, ci.seed)
	}
	fmt.Printf("\n%d runs, seeds %d to %d, %.0f s per workload\n", n, c.seed, c.seed+int64(n)-1, c.seconds)
	fmt.Printf("%-18s %-22s %12s %12s %12s %8s %8s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "maxdev")
	for _, d := range defs {
		for _, m := range endToEnd {
			v := values[d.name+"/"+m[0]]
			med, q1, q3 := median(v), quantile(v, 0.25), quantile(v, 0.75)
			var dev float64
			for _, x := range v {
				dev = math.Max(dev, math.Abs(x-med)/med)
			}
			fmt.Printf("%-18s %-22s %12.4f %12.4f %12.4f %8.4f %8.4f\n", d.name, m[0], med, q1, q3, (q3-q1)/med, dev)
		}
	}
	return nil
}
