package storage

import "unsafe"

// Address helpers for the micro-architectural experiments (Figures 10(a),
// 11 and 14): the cache simulator replays the real addresses of the
// objects the hot loops touch. They expose layout, not data, and are not
// used by the engine itself.

// HeaderAddr returns the address of the record's header word (the
// iteration counter) — touched by every versioned read and install.
func (r *IterativeRecord) HeaderAddr() uintptr {
	return uintptr(unsafe.Pointer(&r.iterCounter))
}

// SlotMetaAddr returns the address of the slot descriptor (seqlock word
// and data-slice header) for the snapshot with the given iteration.
func (r *IterativeRecord) SlotMetaAddr(iter uint64) uintptr {
	return uintptr(unsafe.Pointer(&r.slots[iter%uint64(len(r.slots))]))
}

// SlotDataAddr returns the address of column col of the snapshot slot for
// the given iteration.
func (r *IterativeRecord) SlotDataAddr(iter uint64, col int) uintptr {
	return uintptr(unsafe.Pointer(&r.slots[iter%uint64(len(r.slots))].data[col]))
}

// Float64SliceAddr returns the address of element i of a float64 slice —
// the plain-array model of the baselines.
func Float64SliceAddr(s []float64, i int) uintptr {
	return uintptr(unsafe.Pointer(&s[i]))
}

// Int32SliceAddr returns the address of element i of an int32 slice —
// the index arrays of sparse feature vectors.
func Int32SliceAddr(s []int32, i int) uintptr {
	return uintptr(unsafe.Pointer(&s[i]))
}
