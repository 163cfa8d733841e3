package storage

import "math"

// Payload is a fixed-width tuple of 64-bit slots. Each slot holds either an
// int64 or a float64, bit-cast into a uint64, so payload copies are flat
// memcpys and version snapshots never chase pointers. The interpretation of
// each slot is dictated by the table schema that owns the record.
type Payload []uint64

// Clone returns an independent copy of the payload.
func (p Payload) Clone() Payload {
	c := make(Payload, len(p))
	copy(c, p)
	return c
}

// Slab is the backing array of a batch of equal-width payloads: a bulk
// decoder carves its rows from one Slab instead of allocating each. The
// rows share the slab's lifetime.
type Slab struct {
	words []uint64
	width int
}

// NewSlab allocates room for n payloads of width slots. Decoders size it
// only after checking n against the bytes actually present.
func NewSlab(n, width int) Slab {
	return Slab{words: make([]uint64, n*width), width: width}
}

// Row is the slab's i-th payload. Its capacity equals its length
// (three-index slice), so an append to one row reallocates instead of
// overwriting its neighbour.
func (s Slab) Row(i int) Payload {
	lo, hi := i*s.width, (i+1)*s.width
	return Payload(s.words[lo:hi:hi])
}

// Float64 returns slot i interpreted as a float64.
func (p Payload) Float64(i int) float64 {
	return math.Float64frombits(p[i])
}

// SetFloat64 stores v into slot i.
func (p Payload) SetFloat64(i int, v float64) {
	p[i] = math.Float64bits(v)
}

// Int64 returns slot i interpreted as an int64.
func (p Payload) Int64(i int) int64 {
	return int64(p[i])
}

// SetInt64 stores v into slot i.
func (p Payload) SetInt64(i int, v int64) {
	p[i] = uint64(v)
}
