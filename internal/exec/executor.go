// Package exec implements deterministic parallel execution of committed
// batches: a conflict analyzer partitions a block's transactions into
// dependency strata using application-declared read/write key sets, and a
// bounded worker pool executes each stratum concurrently. Two requests that
// conflict on any key — or that sit on either side of a barrier request
// whose key set cannot be enumerated — keep their batch order by landing in
// different strata; disjoint requests share a stratum and run in parallel.
//
// Determinism argument: the stratum assignment is a pure function of the
// request sequence and the declared key sets (both identical on every
// replica), strata execute in ascending order with a full barrier between
// them, and requests inside one stratum touch pairwise-disjoint keys — so
// the state each request observes, and therefore its result, is independent
// of the worker interleaving. Results are merged by original batch index,
// giving a bit-identical result vector and post-state on every replica and
// at every worker count.
package exec

import (
	"sync"
	"sync/atomic"

	"smartchain/internal/smr"
)

// KeySet declares the state keys one ordered request reads and writes.
// Writes must be a superset of the keys the request can possibly mutate
// (over-declaring is safe — it only costs parallelism; under-declaring
// breaks determinism). A request whose result is a constant (malformed
// payload, signature mismatch detected before state access) may declare an
// empty set and will be scheduled with maximal freedom.
type KeySet struct {
	Reads  []string
	Writes []string
	// Barrier marks a request whose key set cannot be enumerated up front
	// (e.g. a global count query, or an op the application cannot parse into
	// keys). It conflicts with every write before and after it in the batch:
	// it observes exactly the writes of earlier positions and none of the
	// later ones.
	Barrier bool
}

// Application is the optional capability an Application implements to opt
// into conflict-aware parallel execution. ExecuteOne must be safe to call
// concurrently for requests whose declared key sets are disjoint, and a
// sequential pass of ExecuteOne over a batch must be semantically identical
// to the application's ExecuteBatch.
type Application interface {
	// RequestKeys returns the declared read/write key set of one request.
	RequestKeys(req *smr.Request) KeySet
	// ExecuteOne applies one request and returns its result bytes.
	ExecuteOne(bc smr.BatchContext, req *smr.Request) []byte
}

// Stats are cumulative executor counters (atomics: readers snapshot them
// while the executor runs).
type Stats struct {
	// Batches counts Execute calls that took the parallel path.
	Batches int64
	// Strata counts dependency strata across those batches; Strata/Batches
	// is the average depth — 1.0 means perfectly conflict-free batches,
	// len(batch) means fully serial ones.
	Strata int64
	// Requests counts requests executed on the parallel path.
	Requests int64
}

// Executor runs batches through the conflict analyzer and a bounded worker
// pool. The zero worker count (or 1) is the exact sequential path.
type Executor struct {
	workers  int
	batches  atomic.Int64
	strata   atomic.Int64
	requests atomic.Int64
}

// New creates an executor with the given worker bound (values < 1 behave
// as 1, i.e. sequential execution).
func New(workers int) *Executor {
	if workers < 1 {
		workers = 1
	}
	return &Executor{workers: workers}
}

// Workers returns the configured worker bound.
func (e *Executor) Workers() int { return e.workers }

// Stats snapshots the cumulative counters.
func (e *Executor) Stats() Stats {
	return Stats{
		Batches:  e.batches.Load(),
		Strata:   e.strata.Load(),
		Requests: e.requests.Load(),
	}
}

// Execute applies reqs in batch order semantics and returns one result per
// request, in the original order. With workers ≤ 1 (or a trivial batch) it
// degenerates to the plain sequential loop.
func (e *Executor) Execute(bc smr.BatchContext, app Application, reqs []smr.Request) [][]byte {
	results := make([][]byte, len(reqs))
	if e.workers <= 1 || len(reqs) < 2 {
		for i := range reqs {
			results[i] = app.ExecuteOne(bc, &reqs[i])
		}
		return results
	}
	strata := Strata(app, reqs)
	e.batches.Add(1)
	e.strata.Add(int64(len(strata)))
	e.requests.Add(int64(len(reqs)))
	for _, stratum := range strata {
		e.runStratum(bc, app, reqs, stratum, results)
	}
	return results
}

// runStratum executes the requests of one stratum on up to e.workers
// goroutines and waits for all of them (the inter-stratum barrier).
func (e *Executor) runStratum(bc smr.BatchContext, app Application, reqs []smr.Request, stratum []int, results [][]byte) {
	if len(stratum) == 1 {
		i := stratum[0]
		results[i] = app.ExecuteOne(bc, &reqs[i])
		return
	}
	workers := e.workers
	if workers > len(stratum) {
		workers = len(stratum)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(stratum) {
					return
				}
				i := stratum[j]
				results[i] = app.ExecuteOne(bc, &reqs[i])
			}
		}()
	}
	wg.Wait()
}

// Strata partitions a batch into dependency strata: request i lands one
// stratum after the latest earlier request it conflicts with (writer of a
// key it reads or writes, reader of a key it writes, or a barrier), and in
// stratum 0 when it conflicts with nothing earlier. The assignment is a
// deterministic function of the request order and declared key sets.
func Strata(app Application, reqs []smr.Request) [][]int {
	// lastWrite[k] / lastRead[k]: highest stratum that writes / reads key k
	// so far. maxWrite / maxRead: the running maxima over ALL keys, which is
	// what a barrier (wildcard) request conflicts with; barrierStratum is the
	// highest stratum holding a barrier, which every later request must
	// follow (a barrier both reads and writes the wildcard key).
	lastWrite := make(map[string]int, len(reqs))
	lastRead := make(map[string]int, len(reqs))
	maxWrite, maxRead, barrierStratum := -1, -1, -1

	strata := make([][]int, 0, 4)
	for i := range reqs {
		ks := app.RequestKeys(&reqs[i])
		s := 0
		if ks.Barrier {
			// After every write and read so far: the barrier must observe
			// exactly the earlier writes, and no earlier reader may observe
			// its (unknowable) writes out of order.
			if maxWrite+1 > s {
				s = maxWrite + 1
			}
			if maxRead+1 > s {
				s = maxRead + 1
			}
		} else {
			for _, k := range ks.Reads {
				if w, ok := lastWrite[k]; ok && w+1 > s {
					s = w + 1
				}
			}
			for _, k := range ks.Writes {
				if w, ok := lastWrite[k]; ok && w+1 > s {
					s = w + 1
				}
				if r, ok := lastRead[k]; ok && r+1 > s {
					s = r + 1
				}
			}
		}
		// Everyone follows the latest barrier, whatever their keys.
		if barrierStratum+1 > s {
			s = barrierStratum + 1
		}

		if ks.Barrier {
			if s > barrierStratum {
				barrierStratum = s
			}
			if s > maxWrite {
				maxWrite = s
			}
			if s > maxRead {
				maxRead = s
			}
		} else {
			for _, k := range ks.Reads {
				if cur, ok := lastRead[k]; !ok || s > cur {
					lastRead[k] = s
				}
			}
			for _, k := range ks.Writes {
				if cur, ok := lastWrite[k]; !ok || s > cur {
					lastWrite[k] = s
				}
			}
			if len(ks.Writes) > 0 && s > maxWrite {
				maxWrite = s
			}
			if len(ks.Reads) > 0 && s > maxRead {
				maxRead = s
			}
		}

		for len(strata) <= s {
			strata = append(strata, nil)
		}
		strata[s] = append(strata[s], i)
	}
	return strata
}
