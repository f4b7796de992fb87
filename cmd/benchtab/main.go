// Command benchtab regenerates the reproduction's experiment tables
// (DESIGN.md's experiment index; results recorded in EXPERIMENTS.md).
//
// Usage:
//
//	benchtab                      # run every experiment at full scale
//	benchtab -run E4,E5           # run a subset
//	benchtab -scale 0.2           # shrink table sizes for a quick pass
//	benchtab -list                # list experiments and exit
//
// The repository's benchmark (build rate, DML latency during builds, reads
// beside writes, restart) lives in bench/; see bench/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"onlineindex/internal/experiments"
)

func main() {
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	scale := flag.Float64("scale", 1.0, "table-size scale factor")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{Scale: *scale, Out: os.Stdout}

	var selected []experiments.Experiment
	if *run == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, ok := experiments.Get(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "benchtab: unknown experiment %q\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
