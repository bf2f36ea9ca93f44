package scheme_test

// Conformance suite: every registered scheme — present and future — is
// held to the same contract, with no per-scheme test code. A new backend
// only has to Register itself to be covered. The checks:
//
//   - the sim.Setup enum and the registry agree (every name resolves to a
//     setup, every setup resolves to a scheme, labels match),
//   - every order in the scheme's encoding domain round-trips through the
//     PTE codec (conventional encoding for the x86-64 orders, NAPOT
//     tailored encoding for everything else),
//   - a simulated run satisfies the TLB probe/insert counter identities
//     and never maps a page outside the scheme's declared order domain,
//   - the steady-state translate path is allocation-free,
//   - runs are deterministic (same options, byte-equal Result).
//
// CI runs exactly this suite with:
//
//	go test -run Conformance ./internal/scheme/...

import (
	"reflect"
	"sort"
	"testing"

	"tps/internal/addr"
	"tps/internal/pte"
	"tps/internal/scheme"
	_ "tps/internal/scheme/all"
	"tps/internal/sim"
	"tps/internal/workload"
)

// setupFor resolves a registered scheme back to its sim.Setup, failing the
// test for a scheme the enum does not know (a backend registered without a
// setupNames entry would be unreachable from the harness).
func setupFor(t *testing.T, sch scheme.Scheme) sim.Setup {
	t.Helper()
	s, ok := sim.SetupByName(sch.Name())
	if !ok {
		t.Fatalf("registered scheme %q has no sim.Setup mapping", sch.Name())
	}
	return s
}

func TestConformanceRegistryMatchesSetups(t *testing.T) {
	schemes := scheme.All()
	if len(schemes) < 7 {
		t.Fatalf("only %d schemes registered, want at least the 7 built-ins", len(schemes))
	}
	if got := len(sim.Setups()); got != len(schemes) {
		t.Errorf("sim.Setups() has %d entries, registry has %d", got, len(schemes))
	}
	for _, sch := range schemes {
		s := setupFor(t, sch)
		if got := s.SchemeName(); got != sch.Name() {
			t.Errorf("%s: SetupByName round-trip broke: SchemeName() = %q", sch.Name(), got)
		}
		if got := s.String(); got != sch.Label() {
			t.Errorf("%s: Setup.String() = %q, scheme label = %q", sch.Name(), got, sch.Label())
		}
		if sch.Description() == "" {
			t.Errorf("%s: empty Description", sch.Name())
		}
	}
	for _, s := range sim.Setups() {
		if _, ok := scheme.Lookup(s.SchemeName()); !ok {
			t.Errorf("setup %d (%s) not in the registry", int(s), s.SchemeName())
		}
	}
}

// conventionalOrders are the orders x86-64 encodes without the T bit; every
// other order a scheme declares must use the NAPOT tailored encoding.
var conventionalOrders = map[addr.Order]bool{0: true, addr.Order2M: true, addr.Order1G: true}

func TestConformancePTERoundTrip(t *testing.T) {
	// Aligned to every representable order, well inside PhysBits.
	pfn := addr.PFN(1) << uint(addr.MaxOrder)
	for _, sch := range scheme.All() {
		t.Run(sch.Name(), func(t *testing.T) {
			orders := sch.Orders()
			if len(orders) == 0 {
				t.Fatal("empty encoding domain")
			}
			if !sort.SliceIsSorted(orders, func(i, j int) bool { return orders[i] < orders[j] }) {
				t.Errorf("Orders() not ascending: %v", orders)
			}
			for _, o := range orders {
				if o < 0 || o > addr.MaxOrder {
					t.Errorf("order %d outside [0,%d]", o, addr.MaxOrder)
					continue
				}
				if conventionalOrders[o] {
					level := int(o) / addr.LevelBits
					e := pte.MakeConventional(pfn, o, pte.FlagWrite)
					if got := e.Order(level); got != o {
						t.Errorf("conventional order %v decoded as %v", o, got)
					}
					if got := e.PFN(level); got != pfn {
						t.Errorf("conventional order %v: PFN %#x decoded as %#x", o, pfn, got)
					}
				}
				if o >= 1 {
					e, err := pte.MakeTailored(pfn, o, pte.FlagWrite)
					if err != nil {
						t.Errorf("MakeTailored(order %v): %v", o, err)
						continue
					}
					if got := e.Order(0); got != o {
						t.Errorf("tailored order %v decoded as %v", o, got)
					}
					if got := e.PFN(0); got != pfn {
						t.Errorf("tailored order %v: PFN %#x decoded as %#x", o, pfn, got)
					}
				}
			}
		})
	}
}

// TestConformanceSimulatedRuns drives each scheme through a real (small)
// simulation and checks the hierarchy counter identities, the census
// domain, and run-to-run determinism.
func TestConformanceSimulatedRuns(t *testing.T) {
	w := workload.Sparse(128<<20, 0.5)
	for _, sch := range scheme.All() {
		t.Run(sch.Name(), func(t *testing.T) {
			opts := sim.Options{
				Setup:       setupFor(t, sch),
				Refs:        150_000,
				Seed:        7,
				MemoryPages: 1 << 19, // 2 GB
			}
			res, err := sim.Run(w, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Probe/insert identities: every access settles at exactly one
			// level of the hierarchy.
			m := res.MMU
			if m.Accesses == 0 {
				t.Fatal("run recorded no TLB accesses")
			}
			if m.Accesses != m.L1Hits+m.L1Misses {
				t.Errorf("accesses %d != L1 hits %d + misses %d", m.Accesses, m.L1Hits, m.L1Misses)
			}
			if m.L1Misses != m.STLBHits+m.STLBMisses {
				t.Errorf("L1 misses %d != STLB hits %d + misses %d", m.L1Misses, m.STLBHits, m.STLBMisses)
			}
			if m.STLBMisses != m.SidecarHits+m.Walks {
				t.Errorf("STLB misses %d != sidecar hits %d + walks %d", m.STLBMisses, m.SidecarHits, m.Walks)
			}

			// The kernel must never map a page outside the scheme's
			// declared encoding domain.
			allowed := map[addr.Order]bool{}
			for _, o := range sch.Orders() {
				allowed[o] = true
			}
			for o, n := range res.Census {
				if n > 0 && !allowed[o] {
					t.Errorf("census has %d order-%v pages outside encoding domain %v", n, o, sch.Orders())
				}
			}
			if res.Scheme != sch.Name() {
				t.Errorf("Result.Scheme = %q, want %q", res.Scheme, sch.Name())
			}

			again, err := sim.Run(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Errorf("two identical runs diverged:\n%+v\nvs\n%+v", res, again)
			}
		})
	}
}

// TestConformanceZeroAllocTranslate: the steady-state translate path —
// where every cell spends its life — must not allocate, for any scheme,
// on every hot-path variant: the default (translation cache in front of
// the modeled hierarchy) and the cache disabled.
func TestConformanceZeroAllocTranslate(t *testing.T) {
	if testing.Short() {
		t.Skip("faults in a 64MB footprint per scheme and variant")
	}
	variants := []struct {
		name string
		opts sim.Options
	}{
		{"default", sim.Options{}},
		{"cache-disabled", sim.Options{TransCache: -1}},
	}
	for _, sch := range scheme.All() {
		for _, v := range variants {
			t.Run(sch.Name()+"/"+v.name, func(t *testing.T) {
				opts := v.opts
				opts.Setup = setupFor(t, sch)
				ss, err := sim.NewSteadyState(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := ss.Step(); err != nil { // settle any first-batch laziness
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(100, func() {
					if err := ss.Step(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Fatalf("steady-state batch allocates %.2f times, want 0", allocs)
				}
				if s := ss.MMUStats(); s.Accesses == 0 {
					t.Error("steady-state harness drove no translations")
				}
			})
		}
	}
}
