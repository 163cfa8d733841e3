// Package alloctest measures the heap allocations of one call for tests
// whose bound is tight enough that an allocation from elsewhere in the
// test binary — a concurrent garbage collection's, another goroutine's —
// would fail them on unchanged code.
package alloctest

import (
	"runtime"
	"runtime/debug"
)

// Counts are the allocations one measured call made.
type Counts struct {
	Mallocs uint64 // heap objects (runtime.MemStats.Mallocs)
	Bytes   uint64 // heap bytes (runtime.MemStats.TotalAlloc)
}

// Min measures k calls, each on fresh state, and returns the fewest
// objects and bytes any of them allocated. fresh builds the state outside
// the measurement and returns the call to measure; the garbage collector
// is held off around the call and restored after it.
func Min(k int, fresh func() (call func())) Counts {
	var best Counts
	for i := 0; i < k; i++ {
		call := fresh()
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1) // also waits out a running mark phase
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		c := Counts{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
		if i == 0 || c.Mallocs < best.Mallocs {
			best.Mallocs = c.Mallocs
		}
		if i == 0 || c.Bytes < best.Bytes {
			best.Bytes = c.Bytes
		}
	}
	return best
}
