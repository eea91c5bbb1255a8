package sparse

import (
	"sync"
	"sync/atomic"
)

// MinParRows is the matrix size below which a solver workspace runs its
// pooled mat-vec as a single chunk: under it the dispatch costs more than
// the arithmetic it distributes.
const MinParRows = 4096

// PartitionByWork splits the index range [lo, hi) into at most parts
// contiguous chunks balanced by cumulative work, where pref is a prefix-sum
// profile (pref[i+1]−pref[i] is the work of index i — CSR.RowPtr is exactly
// such a profile with work = nnz per row). The returned boundaries are
// strictly increasing, starting at lo and ending at hi; empty chunks are
// never emitted, so the result may hold fewer than parts chunks, and a
// degenerate range (hi ≤ lo) yields no boundaries at all — zero chunks,
// which every dispatcher in this package treats as a no-op. Structured
// FEM matrices have heavy boundary rows, so equal-count row chunks can be
// 2× imbalanced where equal-nnz chunks are not; every parallel row sweep
// (the pooled mat-vecs, the level-scheduled triangular solves) partitions
// through here.
func PartitionByWork(pref []int32, lo, hi, parts int) []int32 {
	return partitionByWork(nil, pref, lo, hi, parts)
}

// PartitionByWorkInto is PartitionByWork appending into dst's backing array,
// for callers (the allocation-free solver hot loops) that re-partition every
// solve without allocating.
func PartitionByWorkInto(dst []int32, pref []int32, lo, hi, parts int) []int32 {
	return partitionByWork(dst, pref, lo, hi, parts)
}

// partitionByWork is PartitionByWork appending into dst (reused across calls
// by the allocation-free solver hot loops).
func partitionByWork(dst []int32, pref []int32, lo, hi, parts int) []int32 {
	dst = dst[:0]
	if hi <= lo {
		return dst
	}
	if parts > hi-lo {
		parts = hi - lo
	}
	if parts < 1 {
		parts = 1
	}
	dst = append(dst, int32(lo))
	total := int64(pref[hi] - pref[lo])
	prev := lo
	for k := 1; k < parts; k++ {
		target := pref[lo] + int32(total*int64(k)/int64(parts))
		// Smallest boundary i in (prev, hi) with pref[i] >= target.
		i := prev + 1
		j := hi
		for i < j {
			mid := int(uint(i+j) >> 1)
			if pref[mid] < target {
				i = mid + 1
			} else {
				j = mid
			}
		}
		if i >= hi {
			break
		}
		if i > prev {
			dst = append(dst, int32(i))
			prev = i
		}
	}
	return append(dst, int32(hi))
}

// ParallelChunks runs fn over each [bounds[i], bounds[i+1]) chunk — bounds
// as PartitionByWork returns them — using at most workers goroutines
// including the caller, and waits for completion. Chunks are claimed through
// an atomic cursor so a worker finishing early steals the remainder. It
// spawns its goroutines per call, so it serves one-shot builds outside this
// package (the global assembly); the solver hot loops dispatch through a
// resident Pool instead.
//
//stressvet:gang -- workers-1 goroutines; the caller participates as the last worker
func ParallelChunks(bounds []int32, workers int, fn func(lo, hi int)) {
	n := len(bounds) - 1
	if n < 1 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(int(bounds[i]), int(bounds[i+1]))
		}
		return
	}
	var next atomic.Int32
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(int(bounds[i]), int(bounds[i+1]))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
