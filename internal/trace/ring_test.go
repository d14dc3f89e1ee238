package trace

import (
	"testing"

	"repro/internal/flit"
)

// TestRingOverwritesOldest pins the ring's flight-recorder semantics:
// append never fails, a full ring overwrites its oldest record, every
// overwrite fires the drop hook, and iteration is non-destructive.
func TestRingOverwritesOldest(t *testing.T) {
	drops := 0
	var r ring
	r.init(3, func() { drops++ })
	for i := int64(0); i < 5; i++ {
		r.append(Record{PktID: i})
	}
	if drops != 2 {
		t.Fatalf("drops = %d, want 2", drops)
	}
	if r.len() != 3 {
		t.Fatalf("len = %d, want 3", r.len())
	}
	for pass := 0; pass < 2; pass++ {
		var ids []int64
		r.each(func(rec Record) { ids = append(ids, rec.PktID) })
		if len(ids) != 3 || ids[0] != 2 || ids[1] != 3 || ids[2] != 4 {
			t.Fatalf("pass %d: surviving ids = %v, want [2 3 4]", pass, ids)
		}
	}
}

// TestHeadsRefuseNewest pins the sampled-head queue's overflow policy:
// an input VC keeps at most bufFlits+2 sampled heads, and a head that
// arrives to a full queue is refused and counted as dropped, so the
// heads already queued keep their grant order.
func TestHeadsRefuseNewest(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	rt := tr.AddRouter(0, 1, 1, 2)
	for id := int64(0); id < 6; id++ {
		rt.HeadArrived(0, 0, flit.Flit{PktID: id}, id)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped %d heads past bufFlits+2 = 4, want 2", got)
	}
	for id := int64(0); id < 4; id++ {
		if !rt.Granted(0, 0, 0, 0, id, 10+id) {
			t.Fatalf("head %d not at the front for its grant", id)
		}
		rt.Departed(0, 0, 0, 0, flit.Flit{PktID: id, Kind: flit.Tail}, 10+id)
	}
	if rt.Granted(0, 0, 0, 0, 4, 20) {
		t.Fatal("a refused head was granted")
	}
}
