package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run builds its deployment from nothing;
// setup_s is the median, and the last build carries the load.
const setupRepeats = 5

// outageWindow is how long after the leader crash unavail_ms looks for the
// longest interval without a completed write.
const outageWindow = 3 * time.Second

// maxLateMS is the generator lateness a run tolerates on a quarter of its
// ops. Ops are timed from their due time, so lateness is inside every
// reported latency rather than hidden, and the p99 is reported; but a
// generator that is late that often is no longer offering the pinned rate.
// The limit sits at the 75th percentile, not the 99th, because on a two-core
// host every checkpoint has four replicas serialising their state at once:
// for that long all timers of the process fire late, the generator's too,
// and on strong_disk that is a sixth of the time.
const maxLateMS = 10

// plan cuts a run's --seconds into phases. The shares are fixed, so the same
// --seconds always measures the same windows.
type plan struct {
	satWarm, satSpan  time.Duration
	stretch           time.Duration // tps_sat is the best stretch of this length inside satSpan
	rateWarm, rateWin time.Duration
	// Fault workloads: offsets into the rate phase (warm-up included).
	crashAt, recoverAt time.Duration
}

func planFor(w *workload, seconds float64) plan {
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	if w.fault {
		// Load keeps arriving on schedule through the crash and the recovery.
		return plan{
			satWarm: share(0.05), satSpan: share(0.375), stretch: share(0.0625),
			rateWarm: share(0.05), rateWin: share(0.525),
			crashAt: share(0.15), recoverAt: share(0.325),
		}
	}
	return plan{
		satWarm: share(0.05), satSpan: share(0.45), stretch: share(0.0625),
		rateWarm: share(0.05), rateWin: share(0.45),
	}
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runResult) set(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
}

func (r *runResult) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload builds the workload's deployment, drives its phases, audits
// the outcome and returns every metric the pass (untraced or traced) owes.
func runWorkload(w *workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		Correct: true, Metrics: map[string]metric{}}
	pl := planFor(w, seconds)

	var tr *tracer
	var h hooks
	if traced {
		tr = newTracer()
		h = tr.hooks()
	}

	// Set-up, several times over; the last deployment is the one measured.
	var d *deployment
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		if tr != nil {
			tr.reset()
		}
		runtime.GC() // a build does not pay for collecting the one before it
		t0 := time.Now()
		var err error
		if d, err = deploy(w, seed, 4, h); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()
	res.set("setup_s", median(setups), "s", len(setups))
	if tr != nil {
		tr.labelApps(d)
		tr.loaded.Store(true)
	}

	ctr := newCounters(d, tr)
	defer ctr.stop()

	// Saturation phase: closed loop, the best stretch of the span. Whatever
	// else runs on the host only ever slows the program down, so its fastest
	// stretch is the steadiest estimate of what it can do. On strong_disk a
	// stretch is one checkpoint period long, so none escapes that cost.
	sat := &phase{d: d, length: pl.satWarm + pl.satSpan}
	satSamples := sat.run(ctr.at([]string{"sat0", "sat1"}, []time.Duration{pl.satWarm, sat.length}))
	if sat.genErr != nil {
		return nil, sat.genErr
	}
	var acked []time.Duration
	for k := range satSamples {
		if s := &satSamples[k]; s.ok && s.done >= pl.satWarm && s.done < sat.length {
			acked = append(acked, s.done)
		}
	}
	res.set("tps_sat", float64(densest(acked, pl.stretch))/pl.stretch.Seconds(), "ops/s", len(acked))

	// Rate phase: open loop at the pinned rate, timed from due time.
	rate := &phase{d: d, length: pl.rateWarm + pl.rateWin, rate: w.rate}
	sidecars := []func(time.Time){ctr.at([]string{"rate0", "rate1"}, []time.Duration{pl.rateWarm, rate.length})}
	var fault *faultLog
	if w.fault {
		fault = &faultLog{}
		sidecars = append(sidecars, func(start time.Time) {
			fault.play(d, start, pl)
			if tr != nil {
				tr.labelApps(d)
			}
		})
	}
	if tr != nil {
		sidecars = append(sidecars, tr.tracedHalf(pl))
	}
	rateSamples := rate.run(sidecars...)
	if rate.genErr != nil {
		return nil, rate.genErr
	}
	if fault != nil && fault.err != nil {
		return nil, fault.err
	}
	ctr.stop()
	if tr != nil {
		tr.loaded.Store(false)
	}

	var writeLat, readLat, late, submit []float64
	var doneAt []time.Duration
	for k := range rateSamples {
		s := &rateSamples[k]
		if s.due < pl.rateWarm {
			continue
		}
		late = append(late, ms(s.sent-s.due))
		submit = append(submit, us(s.submit))
		if !s.ok {
			continue // a failed op is missing from every percentile: the sample counts show it
		}
		if s.kind == opRead {
			readLat = append(readLat, ms(s.latency()))
		} else {
			doneAt = append(doneAt, s.done)
			writeLat = append(writeLat, ms(s.latency()))
		}
	}
	res.set("lat_p50_ms", percentile(writeLat, 50), "ms", len(writeLat))
	res.set("lat_p95_ms", percentile(writeLat, 95), "ms", len(writeLat))
	res.set("client.lat_p99_ms", percentile(writeLat, 99), "ms", len(writeLat))
	res.set("read_lat_p50_ms", orZero(percentile(readLat, 50)), "ms", len(readLat))
	res.set("client.read_lat_p99_ms", orZero(percentile(readLat, 99)), "ms", len(readLat))
	res.set("client.gen_late_ms_p99", percentile(late, 99), "ms", len(late))
	res.set("client.submit_us_p50", percentile(submit, 50), "us", len(submit))
	if fault != nil {
		outage := longestGap(doneAt, fault.crashedAt, fault.crashedAt+outageWindow)
		res.set("unavail_ms", ms(outage), "ms", len(doneAt))
		if limit := 4 * w.consTimeout; outage > limit {
			res.problem("no write completed for %v after the leader crash (liveness limit %v)", outage, limit)
		}
	} else {
		res.set("unavail_ms", ms(longestGap(doneAt, pl.rateWarm, rate.length)), "ms", len(doneAt))
	}

	all := append(satSamples, rateSamples...)
	res.Attempted = len(all) + numProxies // the two set-up ops
	for k := range all {
		if !all[k].ok {
			res.Failed++
			if len(res.Problems) < 8 {
				res.problem("op failed: %s", all[k].err)
			}
		}
	}
	res.set("fail_share", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	if lateP75 := percentile(late, 75); lateP75 > maxLateMS {
		res.problem("generator fell behind its schedule: a quarter of the ops were issued over %d ms late (p75 %.1f ms)", maxLateMS, lateP75)
	}

	ctr.report(res)
	fault.report(res, d)
	spared := []int32{d.ref}
	if fault != nil {
		for id := range d.cluster.Nodes {
			if id != d.ref && id != fault.victim {
				spared = append(spared, id)
			}
		}
	}
	audit(res, d, spared)
	if tr != nil {
		tr.report(res, d, rate, rateSamples, pl)
		if err := runProbes(res, d, seed, math.Min(1, seconds/20)); err != nil {
			return nil, err
		}
	}
	if w.fault {
		durabilityAudit(res, d)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.problem("metric %s has no samples", name)
			delete(res.Metrics, name)
		}
	}
	return res, nil
}

// sortedNames lists a metric map's keys in a stable order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
