// Package base4k registers the 4 KB-only demand-paging baseline: no
// reservations, no promotion, one page size, conventional split-L1 + STLB
// hardware. Every other scheme's gains are measured against this floor.
package base4k

import (
	"tps/internal/addr"
	"tps/internal/mmu"
	"tps/internal/scheme"
	"tps/internal/vmm"
)

type base4K struct{ scheme.Base }

func (base4K) Name() string        { return "base4k" }
func (base4K) Label() string       { return "4K" }
func (base4K) Description() string { return "demand paging with 4 KB pages only" }

func (base4K) Policy() vmm.Policy             { return vmm.PolicyBase4K }
func (base4K) Organization() mmu.Organization { return mmu.OrgConventional }
func (base4K) Orders() []addr.Order           { return []addr.Order{0} }

func init() { scheme.Register(base4K{}) }
