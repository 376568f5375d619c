// Command experiments regenerates the paper-reproduction tables (E1–E16,
// listed in EXPERIMENTS.md).
//
// Usage:
//
//	experiments [-exp E1,E3] [-seed 1] [-quick] [-workers 0] [-par 0]
//	            [-format markdown|text|csv] [-json] [-out results/] [-list]
//	            [-cpuprofile f] [-memprofile f] [-exectrace f]
//
// With no -exp flag every experiment runs in registry order; -list prints
// the registry (ID, title, paper claim) and exits. -json additionally
// emits each table as machine-readable JSON (the same encoder cmd/sweep
// uses): into <out>/<id>.json files when -out is set, to stdout after the
// rendered table otherwise. Identical seeds reproduce tables bit-for-bit
// — including across -workers (intra-round sharding) and -par
// (replication parallelism) values, which only change wall-clock time
// (the engines' and runner's determinism contracts). Run with -h for the
// full flag reference.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"congame/internal/obs"
	"congame/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment IDs (e.g. E1,E3) or 'all'")
		listFlag    = flag.Bool("list", false, "print the experiment registry (ID, title, paper claim) and exit")
		seedFlag    = flag.Uint64("seed", 1, "base random seed")
		quickFlag   = flag.Bool("quick", false, "reduced sizes and replications")
		workersFlag = flag.Int("workers", 0, "engine worker goroutines per round; 0 = GOMAXPROCS (tables are identical for every value)")
		parFlag     = flag.Int("par", 0, "concurrent replications per experiment cell; 0 = GOMAXPROCS (tables are identical for every value)")
		formatFlag  = flag.String("format", "markdown", "output format: markdown, text, or csv")
		jsonFlag    = flag.Bool("json", false, "also emit each table as JSON (stdout, or <out>/<id>.json with -out)")
		outFlag     = flag.String("out", "", "also write one CSV file per experiment into this directory")
		profiler    = obs.NewProfiler(flag.CommandLine)
	)
	flag.Parse()

	if *listFlag {
		printRegistry()
		return 0
	}
	if err := profiler.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	defer func() {
		if err := profiler.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		}
	}()

	if *outFlag != "" {
		if err := os.MkdirAll(*outFlag, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: create output dir: %v\n", err)
			return 1
		}
	}

	var selected []sim.Experiment
	if *expFlag == "all" {
		selected = sim.Experiments()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := sim.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (valid IDs: %s; run with -list for details)\n",
					id, strings.Join(registryIDs(), ", "))
				return 2
			}
			selected = append(selected, e)
		}
	}

	cfg := sim.Config{Seed: *seedFlag, Quick: *quickFlag, Workers: *workersFlag, Par: *parFlag}
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.ID, err)
			return 1
		}
		switch *formatFlag {
		case "markdown":
			fmt.Println(table.Markdown())
		case "text":
			fmt.Println(table.Text())
		case "csv":
			fmt.Print(table.CSV())
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown format %q\n", *formatFlag)
			return 2
		}
		if *jsonFlag {
			doc, err := table.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			if *outFlag != "" {
				path := filepath.Join(*outFlag, strings.ToLower(e.ID)+".json")
				if err := os.WriteFile(path, doc, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "experiments: write %s: %v\n", path, err)
					return 1
				}
			} else {
				os.Stdout.Write(doc)
			}
		}
		if *outFlag != "" {
			path := filepath.Join(*outFlag, strings.ToLower(e.ID)+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: write %s: %v\n", path, err)
				return 1
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// registryIDs returns the experiment IDs in registry order.
func registryIDs() []string {
	exps := sim.Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// printRegistry writes the experiment registry as an aligned listing.
func printRegistry() {
	exps := sim.Experiments()
	wid, wtitle := 0, 0
	for _, e := range exps {
		if len(e.ID) > wid {
			wid = len(e.ID)
		}
		if len(e.Title) > wtitle {
			wtitle = len(e.Title)
		}
	}
	for _, e := range exps {
		fmt.Printf("%-*s  %-*s  %s\n", wid, e.ID, wtitle, e.Title, e.Claim)
	}
}
