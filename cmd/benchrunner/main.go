// benchrunner reproduces the paper's evaluation (§VI) — Tables I–II,
// Figs. 6–8 and the pipeline ablation behind them. It prints the same
// rows/series the paper reports. Protocol facts live in `go test ./...`,
// the safety gate among them (the whole-replica simulation in
// internal/core); "did this change regress anything" is
// `bash bench/run.sh`.
//
// Usage:
//
//	benchrunner -exp table1            # Table I
//	benchrunner -exp fig6              # Figure 6 (n = 4, 7, 10)
//	benchrunner -exp table2            # Table II
//	benchrunner -exp fig7              # Figure 7 timeline
//	benchrunner -exp fig8              # Figure 8 replica-update times
//	benchrunner -exp ablate            # pipeline ablation
//	benchrunner -exp all
//
// -paper scales clients and measurement windows up toward the paper's
// methodology (2400 clients; slower but sharper numbers). -windows sets
// the ordering-window sweep the Fig. 6 rows cover. -json writes every
// measured row to a JSON file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"smartchain/internal/harness"
	"smartchain/internal/storage"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|fig6|table2|fig7|fig8|ablate|all")
		clients  = flag.Int("clients", 240, "closed-loop clients")
		measure  = flag.Duration("measure", 2*time.Second, "measured window per configuration")
		warmup   = flag.Duration("warmup", 500*time.Millisecond, "warmup before measuring")
		paper    = flag.Bool("paper", false, "paper-scale run (2400 clients, 10s windows)")
		ssd      = flag.Bool("ssd", false, "use the SSD device profile instead of the paper's HDD")
		windows  = flag.String("windows", "1,8", "comma-separated ordering windows W for the fig6 sweep")
		jsonPath = flag.String("json", "", "write all measured rows to this JSON file")
	)
	flag.Parse()

	depths, err := parseWindows(*windows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
	opts := harness.ExpOptions{
		Clients: *clients,
		Warmup:  *warmup,
		Measure: *measure,
		Depths:  depths,
	}
	if *paper {
		opts.Clients = 2400
		opts.Measure = 10 * time.Second
		opts.Warmup = 2 * time.Second
	}
	if *ssd {
		opts.Disk = storage.SSDProfile
	}

	report := make(map[string]any)
	runErr := run(*exp, opts, *paper, report)
	if *jsonPath != "" && len(report) > 0 {
		// Persist whatever completed even when a later experiment failed.
		if err := writeReport(*jsonPath, report); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: write json:", err)
			if runErr == nil {
				os.Exit(1)
			}
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", runErr)
		os.Exit(1)
	}
}

// writeReport dumps the collected experiment rows as indented JSON.
func writeReport(path string, report map[string]any) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseWindows parses the -windows flag ("1,8" → []int{1, 8}).
func parseWindows(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -windows entry %q", part)
		}
		out = append(out, w)
	}
	return out, nil
}

func run(exp string, opts harness.ExpOptions, paper bool, report map[string]any) error {
	all := exp == "all"
	ran := false
	if all || exp == "table1" {
		ran = true
		fmt.Println("== Table I: SMaRtCoin throughput by verification and storage strategy ==")
		rows, err := harness.TableI(opts)
		if err != nil {
			return err
		}
		report["table1"] = rows
		printRows(rows)
	}
	if all || exp == "fig6" {
		ran = true
		fmt.Println("== Figure 6: throughput by consortium size and persistence guarantee ==")
		rows, err := harness.Fig6([]int{4, 7, 10}, opts)
		if err != nil {
			return err
		}
		report["fig6"] = rows
		printRows(rows)
	}
	if all || exp == "table2" {
		ran = true
		fmt.Println("== Table II: SMARTCHAIN vs Tendermint vs Fabric ==")
		rows, err := harness.TableII(opts)
		if err != nil {
			return err
		}
		report["table2"] = rows
		printRows(rows)
	}
	if all || exp == "fig7" {
		ran = true
		fmt.Println("== Figure 7: throughput evolution across events ==")
		f7 := harness.Fig7Options{Clients: opts.Clients / 2}
		if paper {
			f7.RunFor = 120 * time.Second
			f7.PrepopUTXO = 1_000_000
		}
		points, err := harness.Fig7(f7)
		if err != nil {
			return err
		}
		report["fig7"] = points
		for _, p := range points {
			marker := ""
			if p.Event != "" {
				marker = "   <-- " + p.Event
			}
			fmt.Printf("  t=%6.1fs  %8.0f tx/s  height=%d%s\n",
				p.T.Seconds(), p.TxPerSec, p.LiveHeight, marker)
		}
	}
	if all || exp == "fig8" {
		ran = true
		fmt.Println("== Figure 8: time to update a replica ==")
		blockCounts := []int{1000, 2000, 4000, 6000, 8000, 10000}
		txPerBlock := 64
		if paper {
			txPerBlock = 512
		}
		for _, ckpt := range []int{0, 500, 1000, 2000} {
			name := "no-ckpt"
			if ckpt > 0 {
				name = fmt.Sprintf("%d-ckpt", ckpt)
			}
			fmt.Printf("  %s:\n", name)
			for _, blocks := range blockCounts {
				d, _, err := harness.Fig8Point(blocks, ckpt, txPerBlock)
				if err != nil {
					return err
				}
				fmt.Printf("    %6d blocks  %8.2fs\n", blocks, d.Seconds())
			}
		}
	}
	if all || exp == "ablate" {
		ran = true
		fmt.Println("== Ablation: Algorithm 1 pipeline decoupling ==")
		rows, err := harness.AblationPipeline(opts)
		if err != nil {
			return err
		}
		report["ablate"] = rows
		printRows(rows)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func printRows(rows []harness.Row) {
	for _, r := range rows {
		fmt.Printf("  %s\n", r)
	}
}
