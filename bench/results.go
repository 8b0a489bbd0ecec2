package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// resultFile is what an all-workloads run leaves behind and what --compare
// reads: every run made, and per workload and metric the median over the
// runs with their spread.
type resultFile struct {
	Host    hostInfo                      `json:"host"`
	Seconds float64                       `json:"seconds"`
	Runs    []*runResult                  `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit,omitempty"`
}

// summary condenses one metric of one workload over the file's runs. Spread
// is the interquartile distance as a share of the median.
type summary struct {
	Median float64   `json:"median"`
	Spread float64   `json:"spread"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runAll runs every workload `runs` times (seed, seed+1, …), untraced and —
// when asked — traced, prints every metric and writes the result file.
// It fails if any run was incorrect.
func runAll(spec *benchSpec, seed int64, seconds float64, traced bool, runs int, out, commit string) error {
	file := &resultFile{
		Host:    hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit},
		Seconds: seconds,
	}
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	incorrect := 0
	for i := 0; i < runs; i++ {
		for k := range workloads {
			for _, pass := range passes {
				res, err := runWorkload(&workloads[k], seed+int64(i), seconds, pass)
				if err != nil {
					return err
				}
				printResult(res)
				for _, m := range spec.owed(pass) {
					if _, ok := res.Metrics[m.Name]; !ok {
						res.problem("metric %s was not measured", m.Name)
					}
				}
				if !res.Correct {
					incorrect++
				}
				file.Runs = append(file.Runs, res)
			}
		}
	}
	file.summarize(spec)
	if err := file.write(out); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) failed their audit", incorrect)
	}
	return nil
}

// summarize fills Summary: end-to-end metrics from the untraced runs,
// per-layer metrics from the traced ones.
func (f *resultFile) summarize(spec *benchSpec) {
	f.Summary = map[string]map[string]summary{}
	for _, traced := range []bool{false, true} {
		for _, m := range spec.owed(traced) {
			values := map[string][]float64{}
			for _, r := range f.Runs {
				if got, ok := r.Metrics[m.Name]; ok && r.Traced == traced {
					values[r.Workload] = append(values[r.Workload], got.Value)
				}
			}
			for w, vs := range values {
				if f.Summary[w] == nil {
					f.Summary[w] = map[string]summary{}
				}
				f.Summary[w][m.Name] = summary{Median: median(vs), Spread: quartileSpread(vs), Unit: m.Unit, Values: vs}
			}
		}
	}
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints, per workload and end-to-end metric, both medians, the
// change and the bound, and marks each pair: ok, regressed (b is worse than
// a by more than the bound), or unresolved (either side's own runs spread
// wider than the bound, so the pair decides nothing). It fails on any
// regressed pair.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-16s %12s %12s %8s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	regressed := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			sa, okA := a.Summary[w.Name][m.Name]
			sb, okB := b.Summary[w.Name][m.Name]
			if !okA || !okB {
				fmt.Printf("%-14s %-16s missing from one of the files\n", w.Name, m.Name)
				regressed++
				continue
			}
			verdict := verdictOf(m, sa, sb)
			if verdict == "regressed" {
				regressed++
			}
			fmt.Printf("%-14s %-16s %12.3f %12.3f %+7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, sa.Median, sb.Median, 100*(sb.Median/sa.Median-1), 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d pair(s) regressed", regressed)
	}
	return nil
}

func verdictOf(m metricSpec, a, b summary) string {
	worse := b.Median/a.Median - 1
	if m.Better == "higher" {
		worse = 1 - b.Median/a.Median
	}
	switch {
	case a.Spread > m.Bound || b.Spread > m.Bound:
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	}
	return "ok"
}
