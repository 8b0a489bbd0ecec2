// Command bench is the repository's benchmark: four SMaRtCoin workloads on an
// in-process 4-replica cluster, end-to-end metrics from an untraced pass, and
// a per-layer budget measured from outside the program by a traced pass and
// by probes. README.md in this directory defines every workload and metric.
//
// Run it from the root of a checkout (bench/run.sh builds and runs it):
//
//	bench --workload strong_disk --seed 1 --seconds 20 --trace 0
//	        one workload, one pass; the last line of output is one JSON object
//	bench [--runs 5] [--trace 1] [--out bench/out/result.json]
//	        every workload (and, with --trace 1, its traced pass), written to --out
//	bench --compare a.json b.json
//	        the regression check between two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "run this workload only and end with the one-line JSON result")
		seed         = flag.Int64("seed", 1, "seed of the op stream (run i of --runs uses seed+i)")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and bench/out/trace-<workload>.json")
		runs         = flag.Int("runs", 1, "all-workloads mode: repetitions, each with its own seed")
		out          = flag.String("out", filepath.Join(outDir, "result.json"), "all-workloads mode: result file")
		commit       = flag.String("commit", "", "all-workloads mode: commit identifier to record in the result file")
		compare      = flag.Bool("compare", false, "compare two result files: bench --compare a.json b.json")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("--compare needs two result files")
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	// The reference host has two cores; with more than four the load generator
	// and the four replicas would stop contending for them, which is the
	// regime the pinned rates were chosen in.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	if *workloadName != "" {
		return runOne(spec, *workloadName, *seed, *seconds, *trace == 1)
	}
	return runAll(spec, *seed, *seconds, *trace == 1, *runs, *out, *commit)
}

// runOne is the driver's contract: one workload, one pass, and as the last
// line of standard output one JSON object with the pass's metrics.
func runOne(spec *benchSpec, name string, seed int64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(w, seed, seconds, traced)
	if err != nil {
		return err
	}
	printResult(res)
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, m := range spec.owed(traced) {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, m.Name)
		}
		line.Metrics[m.Name] = metric{Value: got.Value, Unit: got.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !res.Correct {
		return fmt.Errorf("%s: audit failed", name)
	}
	return nil
}

func printResult(res *runResult) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s  seed %d  %.0f s  %s  GOMAXPROCS %d\n", res.Workload, res.Seed, res.Seconds, pass, runtime.GOMAXPROCS(0))
	for _, name := range sortedNames(res.Metrics) {
		m := res.Metrics[name]
		fmt.Printf("%-38s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	fmt.Printf("attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Println("PROBLEM:", p)
	}
	for _, n := range res.Notes {
		fmt.Println("NOTE:", n)
	}
}
