package check

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count the Options' Workers field
// resolves to when negative: one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// resolveWorkers maps an Options.Workers field to an effective worker
// count: ≤ 0 means one, capped by the number of independent shards.
func resolveWorkers(workers, shards int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	return workers
}

// runShards evaluates fn(0..shards-1) on up to workers goroutines.
// Shards are self-contained units writing only to their own result
// slot, so the dynamic shard→worker assignment never affects the
// merged output: reports are byte-stable for a fixed configuration
// regardless of scheduling. workers ≤ 1 degenerates to a plain loop on
// the calling goroutine.
func runShards(workers, shards int, fn func(shard int)) {
	workers = resolveWorkers(workers, shards)
	if workers <= 1 {
		for i := 0; i < shards; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= shards {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// shardResult is the output of one self-contained verification shard.
type shardResult struct {
	checked  int
	findings []Finding
	full     bool // the shard's own findings cap was reached
	err      error
}

// mergeShards folds shard results into rep in shard order, truncating
// the combined findings at max. The first shard error (in shard order)
// wins.
func mergeShards(rep *Report, results []shardResult, max int) error {
	if max <= 0 {
		max = 32
	}
	f := newFindings(max)
	truncated := false
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
		rep.Checked += r.checked
		for _, fd := range r.findings {
			if f.full() {
				truncated = true
				break
			}
			f.list = append(f.list, fd)
		}
		if r.full {
			truncated = true
		}
	}
	rep.Findings = f.result()
	rep.Truncated = truncated || f.full()
	return nil
}
