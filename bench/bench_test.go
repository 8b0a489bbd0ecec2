package main

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"smartchain/internal/coin"
)

// streamBytes renders the first n ops of every proxy's stream.
func streamBytes(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	ids := newIdentities(seed)
	coins := ids.prepopulate(coin.NewService(nil), n)
	var out bytes.Buffer
	for p := 0; p < numProxies; p++ {
		s := newOpStream(ids, seed, p, coins[p], 0.5)
		for i := 0; i < n; i++ {
			op, err := s.next()
			if err != nil {
				t.Fatalf("seed %d proxy %d op %d: %v", seed, p, i, err)
			}
			out.WriteByte(byte(op.kind))
			out.Write(op.payload)
		}
	}
	return out.Bytes()
}

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := streamBytes(t, 7, 200), streamBytes(t, 7, 200)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different op streams")
	}
	if bytes.Equal(a, streamBytes(t, 8, 200)) {
		t.Fatal("different seeds produced the same op stream")
	}
}

func TestOpStreamExhaustionIsAnError(t *testing.T) {
	ids := newIdentities(1)
	coins := ids.prepopulate(coin.NewService(nil), 3)
	s := newOpStream(ids, 1, 0, coins[0], 0)
	for i := 0; i < 3; i++ {
		if _, err := s.next(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if _, err := s.next(); err == nil {
		t.Fatal("fourth spend of three coins did not fail")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) || !math.IsNaN(median(nil)) {
		t.Error("an empty sample must not read as a number")
	}
	// Median of windows: the middle one of three, the mean of two.
	if got := median([]float64{1500, 900, 1400}); got != 1400 {
		t.Errorf("median of three windows = %v, want 1400", got)
	}
	if got := median([]float64{1000, 2000}); got != 1500 {
		t.Errorf("median of two windows = %v, want 1500", got)
	}
	if got := orZero(percentile(nil, 50)); got != 0 {
		t.Errorf("orZero(NaN) = %v", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([12, 10, 11, 15, 9, 10, 13, 11, 10, 12], n=4)
	// is [10.0, 11.0, 12.25]; the median is 11.
	vals := []float64{12, 10, 11, 15, 9, 10, 13, 11, 10, 12}
	if got, want := quartileSpread(vals), 2.25/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestLatencyIsFromDueTime(t *testing.T) {
	// An op due at 100 ms that the generator sent 30 ms late and that
	// completed at 150 ms waited 50 ms, not 20.
	s := sample{due: 100 * time.Millisecond, sent: 130 * time.Millisecond, done: 150 * time.Millisecond}
	if got := s.latency(); got != 50*time.Millisecond {
		t.Errorf("latency = %v, want 50ms", got)
	}
}

func TestLongestGap(t *testing.T) {
	at := func(msec ...int) []time.Duration {
		out := make([]time.Duration, len(msec))
		for i, m := range msec {
			out[i] = time.Duration(m) * time.Millisecond
		}
		return out
	}
	from, to := 1000*time.Millisecond, 4000*time.Millisecond
	for _, c := range []struct {
		name string
		done []time.Duration
		want time.Duration
	}{
		{"outage in the middle", at(900, 1010, 1020, 1500, 1510, 3990, 4100), 2480 * time.Millisecond},
		{"nothing completes", at(500, 4500), 3000 * time.Millisecond},
		{"gap runs to the end", at(1100, 1200), 2800 * time.Millisecond},
		{"gap from the start", at(2500, 3900), 1500 * time.Millisecond},
	} {
		if got := longestGap(c.done, from, to); got != c.want {
			t.Errorf("%s: longestGap = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDensestStretch(t *testing.T) {
	var done []time.Duration
	for i := 0; i < 100; i++ { // 100 ops/s for a second …
		done = append(done, time.Duration(i)*10*time.Millisecond)
	}
	for i := 0; i < 100; i++ { // … then 400 ops/s for a quarter of one
		done = append(done, time.Second+time.Duration(i)*2500*time.Microsecond)
	}
	if got := densest(done, 250*time.Millisecond); got != 100 {
		t.Errorf("densest 250 ms stretch holds %d ops, want 100", got)
	}
	if got := densest(done, 500*time.Millisecond); got != 125 {
		t.Errorf("densest 500 ms stretch holds %d ops, want 125", got)
	}
	if got := densest(nil, time.Second); got != 0 {
		t.Errorf("densest of nothing = %d", got)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "tps_sat", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{lower, summary{Median: 20}, summary{Median: 21.9}, "ok"},
		{lower, summary{Median: 20}, summary{Median: 22.1}, "regressed"},
		{lower, summary{Median: 20}, summary{Median: 10}, "ok"},
		{higher, summary{Median: 1000}, summary{Median: 910}, "ok"},
		{higher, summary{Median: 1000}, summary{Median: 890}, "regressed"},
		{lower, summary{Median: 20, Spread: 0.2}, summary{Median: 30}, "unresolved"},
	} {
		if got := verdictOf(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// TestNamesMatchTheDeclaration runs a one-second miniature of one workload,
// untraced and traced, and holds every emitted name against BENCHMARK.json:
// a metric added, dropped or renamed on either side fails here.
func TestNamesMatchTheDeclaration(t *testing.T) {
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("bench") //nolint:errcheck
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var declared, have []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !equalSets(declared, have) {
		t.Errorf("workloads: declared %v, benchmark has %v", declared, have)
	}

	outBefore, _ := os.ReadDir(outDir)
	w, err := findWorkload("readmix")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		res, err := runWorkload(w, 1, 1, traced)
		if err != nil {
			t.Fatal(err)
		}
		var owed []string
		for _, m := range spec.owed(traced) {
			owed = append(owed, m.Name)
			if !wellFormed.MatchString(m.Name) {
				t.Errorf("declared name %q is malformed", m.Name)
			}
			if got, ok := res.Metrics[m.Name]; ok && got.Unit != m.Unit {
				t.Errorf("%s: emitted unit %q, declared %q", m.Name, got.Unit, m.Unit)
			}
		}
		// Either pass measures the other's metrics too where they come for
		// free; what it owes must all be there.
		for _, name := range owed {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("traced=%v: declared metric %s was not emitted", traced, name)
			}
		}
		all := append(names(spec.EndToEnd), names(spec.PerLayer)...)
		for name := range res.Metrics {
			if !contains(all, name) {
				t.Errorf("traced=%v: emitted metric %s is not declared", traced, name)
			}
		}
	}
	if len(outBefore) == 0 {
		os.RemoveAll(outDir) // the traced pass's span file, if this test created the directory
	}
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func contains(set []string, s string) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
