// Package addr provides the address arithmetic shared by every layer of the
// Tailored Page Sizes (TPS) simulator: virtual and physical address types,
// page-order math, power-of-two alignment helpers, and the NAPOT
// (naturally-aligned power-of-two) range helpers the TPS PTE encoding relies
// on.
//
// Throughout the simulator, page sizes are expressed as orders relative to
// the 4 KB base page: order 0 is 4 KB, order 1 is 8 KB, order 9 is 2 MB,
// order 18 is 1 GB. This matches the paper's "pages of size 2^n for all n
// greater than a default minimum" formulation with the x86-64 minimum of
// 2^12.
package addr

import "fmt"

// Fundamental x86-64 paging constants.
const (
	// BasePageShift is the log2 of the base (smallest) page size: 4 KB.
	BasePageShift = 12
	// BasePageSize is the base page size in bytes.
	BasePageSize = 1 << BasePageShift

	// LevelBits is the number of virtual-address bits consumed per
	// page-table level ("page table index" in the paper, §III-A1).
	LevelBits = 9
	// SlotsPerTable is the number of PTEs in one page-table page.
	SlotsPerTable = 1 << LevelBits

	// Levels4 and Levels5 are the supported page-table depths. x86-64
	// currently walks four levels; five-level paging (LA57) extends the
	// virtual address to 57 bits (paper §I cites [29]).
	Levels4 = 4
	Levels5 = 5

	// VirtBits4 and VirtBits5 are the translated virtual-address widths.
	VirtBits4 = BasePageShift + Levels4*LevelBits // 48
	VirtBits5 = BasePageShift + Levels5*LevelBits // 57

	// PhysBits is the modeled physical address width. The paper's PTE
	// discussion (§III-A1) uses a 40-bit physical address example; we
	// model 46 bits (64 TB) so the largest benchmarks fit comfortably.
	PhysBits = 46
)

// MaxOrder is the largest tailored page order the simulator supports:
// order 18 is a 1 GB page, the largest conventional x86-64 size. The
// TPS mechanism itself generalizes beyond this; the cap mirrors the
// largest size the paper's evaluation exercises.
const MaxOrder Order = 18

// Order2M and Order1G are the conventional huge-page orders.
const (
	Order2M Order = 9
	Order1G Order = 18
)

// Virt is a virtual address.
type Virt uint64

// Phys is a physical address.
type Phys uint64

// VPN is a virtual page number at base-page granularity (Virt >> 12).
type VPN uint64

// PFN is a physical frame number at base-page granularity (Phys >> 12).
type PFN uint64

// Order is a page-size order relative to the base page: size = 4KB << Order.
type Order int

// PageSize returns the page size in bytes for the order.
func (o Order) PageSize() uint64 { return BasePageSize << uint(o) }

// Pages returns how many base pages one page of this order spans.
func (o Order) Pages() uint64 { return 1 << uint(o) }

// Valid reports whether the order is within the supported range.
func (o Order) Valid() bool { return o >= 0 && o <= MaxOrder }

// String renders the order as a human-readable page size ("4K", "32K", "2M").
func (o Order) String() string { return FormatSize(o.PageSize()) }

// FormatSize renders a byte count with binary suffixes as used in the
// paper's figures (4K ... 1G).
func FormatSize(b uint64) string {
	switch {
	case b >= 1<<30 && b%(1<<30) == 0:
		return fmt.Sprintf("%dG", b>>30)
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dK", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// PageNumber returns the virtual page number of v at base granularity.
func (v Virt) PageNumber() VPN { return VPN(v >> BasePageShift) }

// Offset returns the page offset of v within a page of the given order.
func (v Virt) Offset(o Order) uint64 { return uint64(v) & (o.PageSize() - 1) }

// AlignDown rounds v down to the page boundary of the given order.
func (v Virt) AlignDown(o Order) Virt { return v &^ Virt(o.PageSize()-1) }

// AlignUp rounds v up to the page boundary of the given order.
func (v Virt) AlignUp(o Order) Virt {
	sz := Virt(o.PageSize())
	return (v + sz - 1) &^ (sz - 1)
}

// Aligned reports whether v is aligned to a page of the given order.
func (v Virt) Aligned(o Order) bool { return v.Offset(o) == 0 }

// PageNumber returns the physical frame number of p at base granularity.
func (p Phys) PageNumber() PFN { return PFN(p >> BasePageShift) }

// AlignDown rounds p down to the frame boundary of the given order.
func (p Phys) AlignDown(o Order) Phys { return p &^ Phys(o.PageSize()-1) }

// Aligned reports whether p is aligned to a frame of the given order.
func (p Phys) Aligned(o Order) bool { return uint64(p)&(o.PageSize()-1) == 0 }

// Addr returns the first virtual address on the page.
func (n VPN) Addr() Virt { return Virt(n) << BasePageShift }

// Addr returns the first physical address in the frame.
func (n PFN) Addr() Phys { return Phys(n) << BasePageShift }

// AlignDown rounds the VPN down to a page boundary of the given order,
// expressed in base pages.
func (n VPN) AlignDown(o Order) VPN { return n &^ VPN(o.Pages()-1) }

// Aligned reports whether the VPN is the first base page of an order-o page.
func (n VPN) Aligned(o Order) bool { return n&VPN(o.Pages()-1) == 0 }

// AlignDown rounds the PFN down to a frame boundary of the given order.
func (n PFN) AlignDown(o Order) PFN { return n &^ PFN(o.Pages()-1) }

// Aligned reports whether the PFN is the first base frame of an order-o frame.
func (n PFN) Aligned(o Order) bool { return n&PFN(o.Pages()-1) == 0 }

// TableIndex extracts the 9-bit page-table index for the given level from a
// virtual address. Level 0 is the leaf level (PTE), level 3 the root (PML4E)
// in a four-level walk.
func (v Virt) TableIndex(level int) uint {
	return uint(v>>(BasePageShift+uint(level)*LevelBits)) & (SlotsPerTable - 1)
}

// Canonical reports whether v is a canonical address for the given
// page-table depth (bit VirtBits-1 sign-extends through bit 63).
func (v Virt) Canonical(levels int) bool {
	bits := uint(BasePageShift + levels*LevelBits)
	top := uint64(v) >> (bits - 1)
	return top == 0 || top == (1<<(65-bits))-1
}

// MaxPhys is the first physical address beyond the modeled physical space.
const MaxPhys = Phys(1) << PhysBits

// OrderForSize returns the smallest order whose page size is >= size.
// It returns MaxOrder if size exceeds the largest supported page.
func OrderForSize(size uint64) Order {
	for o := Order(0); o <= MaxOrder; o++ {
		if o.PageSize() >= size {
			return o
		}
	}
	return MaxOrder
}

// LargestOrderFor returns the largest order o such that an order-o page
// starting at vpn is contained in [vpn, vpn+pages) and vpn is o-aligned.
// It is the workhorse of the conservative "exact span" reservation sizing
// (paper §III-B2): repeatedly carving LargestOrderFor chunks tiles a region
// with the fewest exactly-spanning pages.
func LargestOrderFor(vpn VPN, pages uint64) Order {
	o := Order(0)
	for o < MaxOrder {
		next := o + 1
		if !vpn.Aligned(next) || next.Pages() > pages {
			break
		}
		o = next
	}
	return o
}

// SplitNAPOT decomposes the region [vpn, vpn+pages) into the minimal
// sequence of naturally aligned power-of-two chunks, in address order.
// Example from the paper (§III-B2): an aligned 28 KB request yields
// 16K+8K+4K
// (as orders: 2,1,0).
func SplitNAPOT(vpn VPN, pages uint64) []Chunk {
	var out []Chunk
	for pages > 0 {
		o := LargestOrderFor(vpn, pages)
		out = append(out, Chunk{VPN: vpn, Order: o})
		vpn += VPN(o.Pages())
		pages -= o.Pages()
	}
	return out
}

// Chunk is one naturally aligned power-of-two piece of a virtual region.
type Chunk struct {
	VPN   VPN
	Order Order
}

// End returns the first VPN past the chunk.
func (c Chunk) End() VPN { return c.VPN + VPN(c.Order.Pages()) }

// Log2 returns floor(log2(x)). Log2(0) is defined as 0.
func Log2(x uint64) uint {
	var n uint
	for x > 1 {
		x >>= 1
		n++
	}
	return n
}

// IsPow2 reports whether x is a power of two. Zero is not a power of two.
func IsPow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }
