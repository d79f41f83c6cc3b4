// Command fig6 regenerates Figure 6 of the paper: view-updating time
// against base-table size, for the original update strategy versus the
// incrementalized one, on the four benchmark views (luxuryitems /
// officeinfo / outstanding_task / vw_brands).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"birds/internal/bench"
)

func main() {
	var (
		viewName = flag.String("view", "all", "view to sweep (luxuryitems, officeinfo, outstanding_task, vw_brands, or all)")
		sizesArg = flag.String("sizes", "", "comma-separated base-table sizes (default 25k..400k)")
		rounds   = flag.Int("rounds", 6, "measured update rounds per size (first round is warm-up)")
	)
	flag.Parse()

	sizes := bench.DefaultFig6Sizes()
	if *sizesArg != "" {
		sizes = nil
		for _, s := range strings.Split(*sizesArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(os.Stderr, "fig6: bad size:", err)
				os.Exit(2)
			}
			sizes = append(sizes, n)
		}
	}

	var views []bench.Fig6View
	if *viewName == "all" {
		views = bench.Fig6Views()
	} else {
		v, err := bench.Fig6ViewByName(*viewName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig6:", err)
			os.Exit(2)
		}
		views = []bench.Fig6View{v}
	}

	fmt.Println("Figure 6: view updating time (reproduction)")
	for _, v := range views {
		fmt.Printf("\n%s\n%-12s %-18s %-18s %s\n", v.Name, "base size", "original (ms)", "incremental (ms)", "speedup")
		orig, err := bench.RunFig6(v, sizes, false, *rounds, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig6:", err)
			os.Exit(1)
		}
		inc, err := bench.RunFig6(v, sizes, true, *rounds, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fig6:", err)
			os.Exit(1)
		}
		for i := range orig {
			o := orig[i].PerUpdate.Seconds() * 1000
			n := inc[i].PerUpdate.Seconds() * 1000
			speedup := "-"
			if n > 0 {
				speedup = fmt.Sprintf("%.1fx", o/n)
			}
			fmt.Printf("%-12d %-18.3f %-18.3f %s\n", orig[i].Size, o, n, speedup)
		}
	}
}
