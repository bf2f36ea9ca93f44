package vmm

import (
	"math/bits"
	"sort"

	"tps/internal/addr"
)

// block is one physical allocation backing part of a reservation.
type block struct {
	pfn   addr.PFN   // first frame (as returned by the buddy allocator)
	order addr.Order // block order
	vpn   addr.VPN   // first virtual page the block backs
}

// reservation is one entry of the paging reservation table (§III-B1): a
// virtual chunk [vpn, vpn+2^order) backed by reserved physical memory that
// is neither free nor fully in use. Under fragmentation a chunk may be
// backed by several smaller blocks rather than one matching block; pages
// can then only grow to each backing block's size.
type reservation struct {
	vpn   addr.VPN
	order addr.Order

	// blocks cover the chunk's virtual range in ascending vpn order.
	blocks []block

	// touched marks demanded base pages (one bit each).
	touched      []uint64
	touchedCount uint64

	// mapped tracks currently installed pages within the chunk, indexed
	// by base-page offset: 1+order at the first page of each installed
	// page, 0 everywhere else.
	mapped []uint8

	// lazyFrames backs pages allocated frame-by-frame at fault time
	// (PolicyBase4K has no up-front reservation blocks), indexed by
	// base-page offset and stored as 1+frame (0 means none). Each entry is
	// an order-0 buddy block private to this reservation; faults may
	// allocate them only when lazy is set.
	lazyFrames []addr.PFN
	lazy       bool

	// ownsPhys reports whether this reservation frees its blocks at
	// release. Copy-on-write hands a cloned source's blocks to a cowGroup
	// instead (§III-C3); lazy frames are always the reservation's own.
	ownsPhys bool
}

func newReservation(vpn addr.VPN, order addr.Order) *reservation {
	words := (order.Pages() + 63) / 64
	return &reservation{
		vpn:      vpn,
		order:    order,
		touched:  make([]uint64, words),
		mapped:   make([]uint8, order.Pages()),
		ownsPhys: true,
	}
}

// allowLazy lets faults allocate private frames one at a time.
func (r *reservation) allowLazy() {
	r.lazy = true
	r.lazyFrames = make([]addr.PFN, r.order.Pages())
}

// mappedAt reports the order of the page installed at vpn, if a page
// starts there. vpn may lie outside the reservation, where nothing is
// mapped.
func (r *reservation) mappedAt(vpn addr.VPN) (addr.Order, bool) {
	off := uint64(vpn - r.vpn)
	if off >= uint64(len(r.mapped)) || r.mapped[off] == 0 {
		return 0, false
	}
	return addr.Order(r.mapped[off] - 1), true
}

func (r *reservation) setMapped(vpn addr.VPN, o addr.Order) { r.mapped[vpn-r.vpn] = uint8(o) + 1 }

func (r *reservation) clearMapped(vpn addr.VPN) { r.mapped[vpn-r.vpn] = 0 }

// eachMapped calls fn for every installed page in address order and stops
// at the first error fn returns. fn may grow or remove the page it is
// given and any page after it within the grown range; the walk resumes
// past whatever is mapped at vpn on return.
func (r *reservation) eachMapped(fn func(vpn addr.VPN, o addr.Order) error) error {
	for off := uint64(0); off < uint64(len(r.mapped)); {
		if r.mapped[off] == 0 {
			off++
			continue
		}
		if err := fn(r.vpn+addr.VPN(off), addr.Order(r.mapped[off]-1)); err != nil {
			return err
		}
		if m := r.mapped[off]; m != 0 {
			off += addr.Order(m - 1).Pages()
		} else {
			off++
		}
	}
	return nil
}

// eachLazy calls fn for every lazily allocated frame in address order.
func (r *reservation) eachLazy(fn func(pfn addr.PFN)) {
	for _, f := range r.lazyFrames {
		if f != 0 {
			fn(f - 1)
		}
	}
}

// end returns the first VPN past the reservation.
func (r *reservation) end() addr.VPN { return r.vpn + addr.VPN(r.order.Pages()) }

// contains reports whether the vpn falls inside the reservation.
func (r *reservation) contains(vpn addr.VPN) bool { return vpn >= r.vpn && vpn < r.end() }

// markTouched sets the touched bit for vpn; it reports whether the bit was
// newly set.
func (r *reservation) markTouched(vpn addr.VPN) bool {
	i := uint64(vpn - r.vpn)
	w, b := i/64, i%64
	if r.touched[w]&(1<<b) != 0 {
		return false
	}
	r.touched[w] |= 1 << b
	r.touchedCount++
	return true
}

// isTouched reports whether vpn's touched bit is set.
func (r *reservation) isTouched(vpn addr.VPN) bool {
	i := uint64(vpn - r.vpn)
	return r.touched[i/64]&(1<<(i%64)) != 0
}

// markRegionTouched sets all bits in [start, start+pages); promotion below
// threshold 1.0 maps untouched pages, which count as utilized thereafter.
func (r *reservation) markRegionTouched(start addr.VPN, pages uint64) {
	for i := uint64(0); i < pages; i++ {
		r.markTouched(start + addr.VPN(i))
	}
}

// touchedIn counts touched base pages in [start, start+pages).
func (r *reservation) touchedIn(start addr.VPN, pages uint64) uint64 {
	off := uint64(start - r.vpn)
	var n uint64
	// Word-at-a-time popcount over the aligned promotion regions the
	// cascade checks (pages is a power of two and off is pages-aligned).
	if off%64 == 0 && pages%64 == 0 {
		for w := off / 64; w < (off+pages)/64; w++ {
			n += uint64(bits.OnesCount64(r.touched[w]))
		}
		return n
	}
	// A region inside one word (every aligned region below 64 pages):
	// popcount the masked word.
	if b := off % 64; b+pages <= 64 {
		mask := ^uint64(0) >> (64 - pages) << b
		return uint64(bits.OnesCount64(r.touched[off/64] & mask))
	}
	for i := uint64(0); i < pages; i++ {
		j := off + i
		if r.touched[j/64]&(1<<(j%64)) != 0 {
			n++
		}
	}
	return n
}

// frameFor returns the physical frame backing vpn and the order of the
// backing block (the maximum page size this vpn can ever grow to inside
// this reservation).
func (r *reservation) frameFor(vpn addr.VPN) (addr.PFN, addr.Order, bool) {
	if r.lazy {
		if f := r.lazyFrames[vpn-r.vpn]; f != 0 {
			return f - 1, 0, true
		}
	}
	// blocks are sorted by vpn; binary search for the covering block.
	i := sort.Search(len(r.blocks), func(i int) bool {
		return r.blocks[i].vpn > vpn
	}) - 1
	if i < 0 {
		return 0, 0, false
	}
	b := r.blocks[i]
	if vpn >= b.vpn+addr.VPN(b.order.Pages()) {
		return 0, 0, false
	}
	return b.pfn + addr.PFN(vpn-b.vpn), b.order, true
}

// blockFor returns the backing block containing vpn.
func (r *reservation) blockFor(vpn addr.VPN) (block, bool) {
	i := sort.Search(len(r.blocks), func(i int) bool {
		return r.blocks[i].vpn > vpn
	}) - 1
	if i < 0 {
		return block{}, false
	}
	b := r.blocks[i]
	if vpn >= b.vpn+addr.VPN(b.order.Pages()) {
		return block{}, false
	}
	return b, true
}
