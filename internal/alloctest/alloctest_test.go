package alloctest

import "testing"

var sink []byte

func TestMinCountsTheCall(t *testing.T) {
	if c := Min(3, func() func() { return func() {} }); c.Mallocs != 0 || c.Bytes != 0 {
		t.Fatalf("empty call allocated %+v", c)
	}
	c := Min(3, func() func() {
		sink = make([]byte, 1<<20) // fresh state: not measured
		return func() { sink = make([]byte, 64<<10) }
	})
	if c.Mallocs != 1 || c.Bytes < 64<<10 || c.Bytes >= 1<<20 {
		t.Fatalf("one 64 KiB allocation measured as %+v", c)
	}
}
