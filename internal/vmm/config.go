package vmm

import (
	"tps/internal/addr"
	"tps/internal/pagetable"
)

// Policy selects the paging strategy (§III-B1).
type Policy int

const (
	// PolicyBase4K is plain demand paging with 4 KB pages only.
	PolicyBase4K Policy = iota
	// PolicyTHP is the paper's baseline: reservation-based Transparent
	// Huge Pages. Regions reserve 2 MB blocks; a 2 MB page is promoted
	// once its reservation passes the utilization threshold. No
	// intermediate sizes exist.
	PolicyTHP
	// PolicyTPS is the paper's mechanism: reservations at every
	// power-of-two size, incrementally promoted through intermediate
	// tailored page sizes as demand arrives.
	PolicyTPS
	// PolicyTPSEager allocates and maps each tailored page in full at
	// mmap time (the eager-paging alternative, best for walk reduction
	// but worst for allocation latency).
	PolicyTPSEager
	// PolicyRMMEager models the OS side of Redundant Memory Mappings:
	// eager paging with 4 KB pages plus a range-table entry per mapping
	// (the Range TLB is the MMU sidecar).
	PolicyRMMEager
	// Policy2MOnly maps every region eagerly with 2 MB pages exclusively
	// (the Fig. 9 footprint study).
	Policy2MOnly
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyTHP:
		return "thp"
	case PolicyTPS:
		return "tps"
	case PolicyTPSEager:
		return "tps-eager"
	case PolicyRMMEager:
		return "rmm-eager"
	case Policy2MOnly:
		return "2m-only"
	default:
		return "base-4k"
	}
}

// Sizing selects how reservation sizes relate to the request (§III-B2).
type Sizing int

const (
	// SizingConservative tiles the request with the fewest exactly
	// spanning power-of-two chunks (an aligned 28 KB request reserves
	// 16K+8K+4K): zero internal fragmentation beyond 4 KB rounding.
	SizingConservative Sizing = iota
	// SizingAggressive reserves the smallest single power-of-two larger
	// than the request (a 2052 KB request reserves 4 MB): fewest TLB
	// entries, up to ~50% internal fragmentation.
	SizingAggressive
)

// String names the sizing mode.
func (s Sizing) String() string {
	if s == SizingAggressive {
		return "aggressive"
	}
	return "conservative"
}

// Costs models per-operation system time in cycles, feeding the Fig. 17
// system-time accounting. The magnitudes follow kernel-profiling folklore
// (a minor fault costs on the order of a microsecond; page zeroing
// dominates large allocations).
type Costs struct {
	Fault            uint64 // fixed fault-handling overhead
	BuddyOp          uint64 // per allocator split/merge/alloc/free
	PTEWrite         uint64 // per page-table entry store
	ReservationSetup uint64 // per reservation-table insert
	Promotion        uint64 // fixed promotion overhead (excl. PTE writes)
	ZeroPage         uint64 // per 4 KB page zeroed at first mapping
	Mmap             uint64 // fixed mmap syscall overhead
	CopyPage         uint64 // per 4 KB page copied by a CoW fault
}

// DefaultCosts returns the calibration used by the evaluation.
func DefaultCosts() Costs {
	return Costs{
		Fault:            1200,
		BuddyOp:          90,
		PTEWrite:         25,
		ReservationSetup: 250,
		Promotion:        300,
		ZeroPage:         700,
		Mmap:             900,
		CopyPage:         900,
	}
}

// Config parameterizes a Kernel.
type Config struct {
	Policy Policy
	Sizing Sizing

	// PromotionThreshold is the fraction of a candidate page's
	// constituent pages that must be utilized before promotion
	// (§III-B1). 1.0 (the default) guarantees a footprint identical to
	// 4 KB-only paging; lower values trade footprint for TLB reach.
	PromotionThreshold float64

	// MaxTailoredOrder caps the tailored page size (default 1 GB).
	MaxTailoredOrder addr.Order

	// PromotionGranules, when non-nil, restricts the page orders the
	// promotion cascade and buddy merging may produce to the listed set
	// (fixed-granule schemes such as RISC-V Svnapot). nil allows every
	// order up to MaxTailoredOrder. Order 0 is implicitly always allowed:
	// demand faults map base pages regardless of the set.
	PromotionGranules []addr.Order

	// AliasStrategy selects extra-lookup or full-copy alias maintenance.
	AliasStrategy pagetable.AliasStrategy

	// Levels is the page-table depth.
	Levels int

	// CowPolicy selects how write faults to shared tailored pages are
	// resolved (§III-C3): split-and-copy-least or copy-whole-page.
	CowPolicy CowPolicy

	Costs Costs
}

// DefaultConfig returns a Config for the given policy with paper defaults.
func DefaultConfig(p Policy) Config {
	return Config{
		Policy:             p,
		Sizing:             SizingConservative,
		PromotionThreshold: 1.0,
		MaxTailoredOrder:   addr.Order1G,
		AliasStrategy:      pagetable.ExtraLookup,
		Levels:             addr.Levels4,
		Costs:              DefaultCosts(),
	}
}
