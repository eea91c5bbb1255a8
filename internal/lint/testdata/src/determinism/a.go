// Package determinism fixtures. The test loads this package under a kernel
// import path (repro/internal/sparse) so the path-scoped analyzer runs.
package determinism

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"
)

func mapAccumulate(weights map[string]float64) float64 {
	var sum float64
	for _, w := range weights {
		sum += w // want "accumulation into sum inside a map range"
	}
	return sum
}

func mapSliceWrite(m map[int]float64, out []float64) {
	i := 0
	for _, v := range m {
		out[i] = v // want "slice element written inside a map range"
		i++        // int counter: order-independent, allowed
	}
}

func mapLastWriter(m map[int]float64) float64 {
	var last float64
	for _, v := range m {
		last = v // want "last-writer assignment to last"
	}
	return last
}

func mapEmit(m map[string]int) {
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // want "output emitted inside a map range"
	}
}

func mapSend(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want "channel send inside a map range"
	}
}

func mapAppendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append inside a map range without a later sort"
	}
	return keys
}

func mapAppendSorted(m map[string]int) []string {
	// The canonical fix idiom: collect, then sort.
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mapToMapCopy(src, dst map[string]int) {
	for k, v := range src {
		dst[k] = v // map-to-map copy is order-independent, allowed
	}
}

func mapCount(m map[string]int) int {
	n := 0
	for range m {
		n++ // integer increment commutes, allowed
	}
	return n
}

func mapIntSum(sizes map[string]int64) int64 {
	var total int64
	for _, s := range sizes {
		total += s // integer accumulation commutes, allowed
	}
	return total
}

func mapStringConcat(m map[string]string) string {
	var out string
	for _, v := range m {
		out += v // want "accumulation into out inside a map range"
	}
	return out
}

func wallClock() time.Duration {
	t0 := time.Now() // want "time.Now in a kernel package"
	return time.Since(t0)
}

func randomness() float64 {
	return rand.Float64() // want "math/rand.Float64 in a kernel package"
}

func allowedClock() int64 {
	t := time.Now() //stressvet:allow determinism -- wall clock feeds Stats timing only, never numerics
	return t.UnixNano()
}

func atomicCursorScatter(cursor []int32, out []float64, row int, v float64) {
	base := atomic.AddInt32(&cursor[row], 2) - 2
	seg := int(base)
	out[seg] = v    // want "write slot derived from a sync/atomic Add"
	out[seg+1] += v // want "write slot derived from a sync/atomic Add"
}

func atomicCursorCopy(n *int64, out, src []float64) {
	off := int(atomic.AddInt64(n, 4)) - 4
	copy(out[off:off+4], src) // want "write slot derived from a sync/atomic Add"
}

func atomicTypedCursor(c *atomic.Int32, out []int32) {
	out[c.Add(1)-1]++ // want "write slot derived from a sync/atomic Add"
}

func atomicChunkClaim(next *atomic.Int32, bounds []int32, run func(lo, hi int)) {
	// Claiming a chunk reads through the index; the chunk's own writes are
	// fixed by its bounds, allowed.
	i := int(next.Add(1)) - 1
	run(int(bounds[i]), int(bounds[i+1]))
}

func atomicCounter(n *int64, out []int64) {
	out[0] = atomic.AddInt64(n, 1) // the value, not the slot, is atomic-derived: allowed
}
