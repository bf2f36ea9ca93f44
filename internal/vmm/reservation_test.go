package vmm

import (
	"math/rand"
	"testing"

	"tps/internal/addr"
)

// TestTouchedInMatchesBitLoop compares touchedIn's word and masked-word
// popcounts with a bit-by-bit count, over random touched sets of every
// density and every region the promotion cascade checks (aligned powers
// of two) plus unaligned regions of arbitrary length.
func TestTouchedInMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		order := addr.Order(rng.Intn(12))
		r := newReservation(addr.VPN(1<<20), order)
		pages := order.Pages()
		density := rng.Float64()
		for i := uint64(0); i < pages; i++ {
			if rng.Float64() < density {
				r.markTouched(r.vpn + addr.VPN(i))
			}
		}
		bitLoop := func(off, n uint64) uint64 {
			var c uint64
			for i := off; i < off+n; i++ {
				if r.isTouched(r.vpn + addr.VPN(i)) {
					c++
				}
			}
			return c
		}
		check := func(off, n uint64) {
			t.Helper()
			if got, want := r.touchedIn(r.vpn+addr.VPN(off), n), bitLoop(off, n); got != want {
				t.Fatalf("order-%d reservation, density %.2f: touchedIn(+%d, %d) = %d, bit loop %d",
					order, density, off, n, got, want)
			}
		}
		for o := addr.Order(0); o <= order; o++ {
			for off := uint64(0); off < pages; off += o.Pages() {
				check(off, o.Pages())
			}
		}
		for i := 0; i < 50; i++ {
			off := uint64(rng.Int63n(int64(pages)))
			check(off, uint64(rng.Int63n(int64(pages-off)+1)))
		}
	}
}
