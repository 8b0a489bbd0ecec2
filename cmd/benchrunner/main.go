// benchrunner regenerates every table and figure of the paper's evaluation
// (§VI) and prints the same rows/series the paper reports.
//
// Usage:
//
//	benchrunner -exp table1            # Table I
//	benchrunner -exp fig6              # Figure 6 (n = 4, 7, 10)
//	benchrunner -exp table2            # Table II
//	benchrunner -exp fig7              # Figure 7 timeline
//	benchrunner -exp fig8              # Figure 8 replica-update times
//	benchrunner -exp ablate            # pipeline ablation
//	benchrunner -exp window            # ordering window W=1 vs W=8
//	benchrunner -exp openloop          # closed-loop vs async vs unordered reads
//	benchrunner -exp reads             # read-your-writes (session) reads vs ordered reads
//	benchrunner -exp execpar           # conflict-aware parallel execution vs sequential replay
//	benchrunner -exp failover          # leader-kill recovery: one synchronization round per failure
//	benchrunner -exp catchup           # multi-peer pipelined state transfer, healthy and under donor faults
//	benchrunner -exp chaos             # seeded fault schedule under load, invariant-gated
//	benchrunner -exp wire              # memnet vs real-TCP loopback, per-sig vs batched verification
//	benchrunner -exp verify            # end-to-end chain verification
//	benchrunner -exp all
//
// -paper scales clients and measurement windows up toward the paper's
// methodology (2400 clients; slower but sharper numbers). -windows sets
// the ordering-window sweep the Fig. 6 rows cover; -inflight sets the
// per-client pipeline depth of the open-loop experiment. -json writes
// every measured row to a JSON file (the CI workflow uploads it as a
// per-commit artifact, so the perf trajectory is preserved).
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
		exp        = flag.String("exp", "all", "experiment: table1|fig6|table2|fig7|fig8|ablate|window|openloop|reads|execpar|failover|catchup|chaos|wire|verify|all")
		clients    = flag.Int("clients", 240, "closed-loop clients")
		measure    = flag.Duration("measure", 2*time.Second, "measured window per configuration")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "warmup before measuring")
		paper      = flag.Bool("paper", false, "paper-scale run (2400 clients, 10s windows)")
		ssd        = flag.Bool("ssd", false, "use the SSD device profile instead of the paper's HDD")
		windows    = flag.String("windows", "1,8", "comma-separated ordering windows W for the fig6 sweep")
		inflight   = flag.Int("inflight", 16, "per-client in-flight cap for -exp openloop")
		catchupN   = flag.Int64("catchup-blocks", 10_000, "fabricated chain length for -exp catchup (CI smoke uses 2000)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "schedule seed for -exp chaos (same seed = same fault timeline)")
		chaosDur   = flag.Duration("chaos-duration", 15*time.Second, "fault window for -exp chaos")
		chaosChurn = flag.Bool("chaos-churn", false, "interleave membership churn into the -exp chaos schedule")
		netKind    = flag.String("net", "tcp", "transports for -exp wire: mem (memnet only) or tcp (memnet baseline + TCP sweep)")
		wireLat    = flag.Duration("wire-latency", 5*time.Millisecond, "injected per-link latency for the WAN-shaped wire points")
		jsonPath   = flag.String("json", "", "write all measured rows to this JSON file")
	)
	flag.Parse()

	depths, err := parseWindows(*windows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
	if *inflight < 1 {
		fmt.Fprintln(os.Stderr, "benchrunner: -inflight must be ≥ 1 (1 = async machinery at closed-loop depth)")
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

	chaosOpts := harness.ChaosOptions{Seed: *chaosSeed, Duration: *chaosDur, Churn: *chaosChurn}

	var wireNets []string
	switch *netKind {
	case "mem":
		wireNets = []string{"mem"}
	case "tcp":
		// The TCP regression gate needs the memnet baseline for its
		// goodput ratio, so -net tcp measures both.
		wireNets = []string{"mem", "tcp"}
	default:
		fmt.Fprintf(os.Stderr, "benchrunner: bad -net %q (mem|tcp)\n", *netKind)
		os.Exit(1)
	}

	report := make(map[string]any)
	runErr := run(*exp, opts, *paper, *inflight, *catchupN, chaosOpts, wireNets, *wireLat, report)
	if *jsonPath != "" && len(report) > 0 {
		// Persist whatever completed even when a later experiment failed:
		// the CI artifact should carry the partial trajectory too.
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

func run(exp string, opts harness.ExpOptions, paper bool, inflight int, catchupBlocks int64, chaosOpts harness.ChaosOptions, wireNets []string, wireLat time.Duration, report map[string]any) error {
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
				d, err := harness.Fig8Point(blocks, ckpt, txPerBlock)
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
	if all || exp == "window" {
		ran = true
		fmt.Println("== Ordering window: sequential (W=1) vs pipelined (W=8) consensus ==")
		rows, err := harness.PipelineWindow([]int{1, 8}, 5*time.Millisecond, opts)
		if err != nil {
			return err
		}
		report["window"] = rows
		printRows(rows)
		if len(rows) == 2 && rows[0].Throughput > 0 {
			fmt.Printf("  speedup: %.2fx\n", rows[1].Throughput/rows[0].Throughput)
		}
	}
	if all || exp == "openloop" {
		ran = true
		fmt.Println("== Invocation API: closed-loop vs async open-loop vs unordered reads (W=8) ==")
		rows, err := harness.OpenLoop(inflight, 5*time.Millisecond, opts)
		if err != nil {
			return err
		}
		report["openloop"] = rows
		printRows(rows)
		if len(rows) >= 2 && rows[0].Throughput > 0 {
			fmt.Printf("  async speedup over closed-loop: %.2fx\n", rows[1].Throughput/rows[0].Throughput)
		}
	}
	if all || exp == "reads" {
		ran = true
		fmt.Println("== Read consistency: read-your-writes vs ordered reads (W=8) ==")
		points, err := harness.Reads(5*time.Millisecond, opts)
		report["reads"] = points
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Printf("  %s\n", p)
		}
		if len(points) == 2 && points[1].Throughput > 0 {
			fmt.Printf("  read-your-writes: %.2fx ordered-read throughput at 0 instances; ordered reads consumed %d\n",
				points[0].Throughput/points[1].Throughput, points[1].Instances)
		}
	}
	if all || exp == "execpar" {
		ran = true
		fmt.Println("== Parallel execution: conflict-aware executor vs sequential replay (W=8 workers) ==")
		points, err := harness.ExecPar(8, opts)
		report["execpar"] = points
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Printf("  %s\n", p)
		}
		for _, p := range points {
			// Correctness gate: bit-identical results and post-state at every
			// contention level, on every host.
			if p.Diverged {
				return fmt.Errorf("execpar: %s diverged between sequential and parallel execution", p.Contention)
			}
			// Perf gate: at low contention the parallel path must not lose to
			// the sequential one — but only multi-core hosts can show a
			// speedup, so a single-core runner only gets the divergence gate.
			if p.Contention == "uniform" && p.NumCPU >= 4 && p.Speedup < 1.0 {
				return fmt.Errorf("execpar: low-contention speedup %.2fx < 1.0x on a %d-core host",
					p.Speedup, p.NumCPU)
			}
		}
	}
	if all || exp == "failover" {
		ran = true
		fmt.Println("== Failover: time-to-first-commit after leader kill (one synchronization round) ==")
		points, err := harness.Failover(opts)
		report["failover"] = points
		for _, p := range points {
			fmt.Printf("  %s\n", p)
		}
		if err != nil {
			return err
		}
	}
	if all || exp == "catchup" {
		ran = true
		fmt.Printf("== Catch-up: multi-peer pipelined state transfer, healthy and under donor faults (%d-block chain) ==\n", catchupBlocks)
		points, err := harness.Catchup(catchupBlocks)
		report["catchup"] = points
		for _, p := range points {
			fmt.Printf("  %s\n", p)
		}
		if err != nil {
			return err
		}
	}
	if all || exp == "chaos" {
		ran = true
		fmt.Printf("== Chaos: seeded fault schedule under load (seed=%d, %s window) ==\n",
			chaosOpts.Seed, chaosOpts.Duration)
		rep, err := harness.Chaos(chaosOpts)
		report["chaos"] = rep
		if err != nil {
			return err
		}
		// Goodput-under-adversity timeline with fault-event markers.
		evIdx := 0
		for _, s := range rep.Timeline {
			marker := ""
			for evIdx < len(rep.Events) && rep.Events[evIdx].T <= s.T {
				if marker != "" {
					marker += "; "
				}
				marker += fmt.Sprintf("%s %s", rep.Events[evIdx].Kind, rep.Events[evIdx].Name)
				evIdx++
			}
			if marker != "" {
				marker = "   <-- " + marker
			}
			fmt.Printf("  t=%6.2fs  %8.0f tx/s%s\n", s.T.Seconds(), s.TxPerSec, marker)
		}
		fmt.Printf("  confirmed=%d errors=%d chain-txs=%d height=%d epoch-changes=%d equivocations=%d survivors=%d\n",
			rep.Confirmed, rep.Errors, rep.ChainTxs, rep.FinalHeight, rep.EpochChanges, rep.Equivocations, rep.Survivors)
		// Invariant gate: any violation hard-fails the run (CI catches it).
		if len(rep.Violations) > 0 {
			for _, v := range rep.Violations {
				fmt.Printf("  VIOLATION: %s\n", v)
			}
			return fmt.Errorf("chaos: %d invariant violation(s) on seed %d", len(rep.Violations), rep.Seed)
		}
		fmt.Println("  invariants: all green")
	}
	if all || exp == "wire" {
		ran = true
		fmt.Printf("== Wire: memnet vs real TCP (W=8), per-signature vs batched verification (nets=%v) ==\n", wireNets)
		points, cryptoBench, err := harness.Wire(wireNets, wireLat, opts)
		report["wire"] = map[string]any{"points": points, "crypto": cryptoBench}
		if err != nil {
			return err
		}
		for _, p := range points {
			fmt.Printf("  %s\n", p)
		}
		if cryptoBench != nil {
			fmt.Printf("  crypto: %s\n", cryptoBench)
		}
		// Correctness gates, every host. A TCP point on an idle loopback
		// must carry every frame: any drop, failed dial, authentication
		// failure, or unconverged replica is a transport bug, not noise.
		byLabel := make(map[string]harness.WirePoint, len(points))
		for _, p := range points {
			byLabel[p.Net+"/"+p.Verify+"/"+fmt.Sprint(p.LatencyMS)] = p
			if !p.Converged {
				return fmt.Errorf("wire: %s did not converge to a common height (decided-instance loss)", p.Label)
			}
			if p.Net != "tcp" {
				continue
			}
			if p.Drops > 0 {
				return fmt.Errorf("wire: %s dropped %d frames (queue-full=%d conn-down=%d) on loopback",
					p.Label, p.Drops, p.DropsQueueFull, p.DropsConnDown)
			}
			if p.DialFailures > 0 || p.AuthFailures > 0 || p.ProtocolViolations > 0 {
				return fmt.Errorf("wire: %s transport errors: dialfail=%d auth=%d proto=%d",
					p.Label, p.DialFailures, p.AuthFailures, p.ProtocolViolations)
			}
			if p.Errors > 0 {
				return fmt.Errorf("wire: %s had %d failed invocations", p.Label, p.Errors)
			}
		}
		// Batched verification must not pass a corrupted signature or drop
		// an honest one, anywhere.
		if cryptoBench != nil && !cryptoBench.FallbackOK {
			return fmt.Errorf("wire: batch verification fallback mis-attributed a bad signature")
		}
		// Perf gates, multi-core hosts only (a single-core runner cannot
		// show parallel-verification wins, and its TCP goodput is dominated
		// by the cores the kernel steals from consensus).
		if cryptoBench != nil && cryptoBench.NumCPU >= 4 && cryptoBench.Speedup < 1.1 {
			return fmt.Errorf("wire: batched verification speedup %.2fx < 1.1x over per-signature on a %d-core host",
				cryptoBench.Speedup, cryptoBench.NumCPU)
		}
		memPt, okMem := byLabel["mem/batched/0"]
		tcpPt, okTCP := byLabel["tcp/batched/0"]
		if okMem && okTCP && memPt.Throughput > 0 {
			ratio := tcpPt.Throughput / memPt.Throughput
			fmt.Printf("  tcp/memnet goodput ratio at W=8: %.2f\n", ratio)
			if tcpPt.NumCPU >= 4 && ratio < 0.5 {
				return fmt.Errorf("wire: tcpnet keeps only %.0f%% of memnet goodput at W=8 (gate: ≥50%%) on a %d-core host",
					100*ratio, tcpPt.NumCPU)
			}
		}
	}
	if all || exp == "verify" {
		ran = true
		fmt.Println("== End-to-end: strong-variant chain verification ==")
		sum, err := harness.VerifyChainAfterLoad(opts)
		if err != nil {
			return err
		}
		fmt.Printf("  verified chain: height=%d blocks=%d txs=%d certified=%d view-changes=%d\n",
			sum.Height, sum.Blocks, sum.Transactions, sum.Certified, sum.ViewChanges)
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
