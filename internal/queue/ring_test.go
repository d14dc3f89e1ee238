package queue

import "testing"

// FuzzRingMatchesSlice drives a Ring and a plain slice FIFO through
// one script and requires the same values from Pop, Peek and At after
// every step. Each script byte is an op in its top two bits and a
// count k in 1..64 below them: push k values, pop k values (a Pop or
// Peek on an empty ring must panic), read the head and the value k
// places behind it, or Reserve(4k). Bursts of up to 64 cross the
// grow, shrink and reserved-capacity boundaries in a few bytes, and
// the ring's capacity must follow the documented policy exactly:
// doubling when full (8 slots first), halving after a Pop leaves at
// most a quarter occupied above shrinkCap slots, and never dropping
// below the largest capacity reserved.
func FuzzRingMatchesSlice(f *testing.F) {
	f.Add(uint8(0), []byte{0x3f, 0x3f, 0x3f, 0x7f, 0x7f, 0x7f})
	f.Add(uint8(100), []byte{0x3f, 0x3f, 0x3f, 0x3f, 0x7f, 0x7f, 0x7f, 0x7f, 0x80})
	f.Add(uint8(3), []byte{0x05, 0x42, 0x07, 0x83, 0xc8, 0x7f, 0x3f, 0xbf, 0x7f})
	f.Add(uint8(0), []byte{0x3f, 0xd0, 0x3f, 0x3f, 0x3f, 0x7f, 0x7f, 0x7f, 0x7f, 0x40})
	f.Add(uint8(0), []byte{0x07, 0x44, 0x03, 0x85, 0x80, 0x01, 0x46})
	f.Fuzz(func(t *testing.T, reserve uint8, script []byte) {
		var r Ring[int]
		var model []int
		wantCap, keep := 0, 0
		reserveBoth := func(n int) {
			r.Reserve(n)
			keep = max(keep, n)
			wantCap = max(wantCap, n)
		}
		reserveBoth(int(reserve))
		next := 0
		for step, b := range script {
			k := int(b&63) + 1
			switch b >> 6 {
			case 0:
				for i := 0; i < k; i++ {
					r.Push(next)
					if len(model) == wantCap {
						wantCap = max(2*wantCap, 8)
					}
					model = append(model, next)
					next++
				}
			case 1:
				for i := 0; i < k; i++ {
					if len(model) == 0 {
						assertPanics(t, "Pop on empty Ring", func() { r.Pop() })
						break
					}
					if got := r.Pop(); got != model[0] {
						t.Fatalf("step %d: Pop = %d, want %d", step, got, model[0])
					}
					model = model[1:]
					if wantCap > shrinkCap && wantCap/2 >= keep && len(model) <= wantCap/4 {
						wantCap /= 2
					}
				}
			case 2:
				if len(model) == 0 {
					assertPanics(t, "Peek on empty Ring", func() { r.Peek() })
					assertPanics(t, "At on empty Ring", func() { r.At(0) })
					break
				}
				if got := r.Peek(); got != model[0] {
					t.Fatalf("step %d: Peek = %d, want %d", step, got, model[0])
				}
				i := k % len(model)
				if got := *r.At(i); got != model[i] {
					t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, model[i])
				}
				assertPanics(t, "At past the tail", func() { r.At(len(model)) })
			case 3:
				reserveBoth(4 * k)
			}
			if r.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(model))
			}
			if r.Cap() != wantCap {
				t.Fatalf("step %d: Cap = %d, want %d (Len %d, reserved %d)", step, r.Cap(), wantCap, len(model), keep)
			}
		}
		for i, want := range model {
			if got := r.Pop(); got != want {
				t.Fatalf("drain %d: Pop = %d, want %d", i, got, want)
			}
		}
	})
}
