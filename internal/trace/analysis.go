// Package trace implements mutable tracing (§6): the hybrid
// precise/conservative GC-style traversal that transfers the dirty program
// state from the old version to the new one, relocating and
// type-transforming objects where type information is unambiguous and
// pinning ("immutable") or freezing ("nonupdatable") objects reached
// conservatively.
package trace

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// RegionBreakdown counts pointers by the memory region of their source and
// target, the classification of Table 2 (Static / Dynamic / Lib).
type RegionBreakdown struct {
	Ptr         int // total pointers
	SrcStatic   int
	SrcDynamic  int
	SrcLib      int
	TargStatic  int
	TargDynamic int
	TargLib     int
}

// PointerStats aggregates the precise and likely pointer populations of
// one process (Table 2 rows).
type PointerStats struct {
	Precise RegionBreakdown
	Likely  RegionBreakdown
}

// Add accumulates other into s (multi-process aggregation).
func (s *PointerStats) Add(other PointerStats) {
	addBreakdown(&s.Precise, other.Precise)
	addBreakdown(&s.Likely, other.Likely)
}

func addBreakdown(dst *RegionBreakdown, src RegionBreakdown) {
	dst.Ptr += src.Ptr
	dst.SrcStatic += src.SrcStatic
	dst.SrcDynamic += src.SrcDynamic
	dst.SrcLib += src.SrcLib
	dst.TargStatic += src.TargStatic
	dst.TargDynamic += src.TargDynamic
	dst.TargLib += src.TargLib
}

// Analysis is the conservative analysis result for one process: the
// object invariants of §6 plus pointer statistics.
type Analysis struct {
	// Immutable holds objects pointed to by likely pointers: they cannot
	// be relocated in the new version.
	Immutable map[mem.Addr]*mem.Object
	// Nonupdatable holds objects that are either immutable or contain
	// likely pointers: they cannot be type-transformed.
	Nonupdatable map[mem.Addr]bool
	// Stats is the pointer census.
	Stats PointerStats
}

// IsImmutable reports whether the object starting at addr is pinned.
func (a *Analysis) IsImmutable(addr mem.Addr) bool {
	_, ok := a.Immutable[addr]
	return ok
}

// AnalyzeProc runs the conservative analysis over every live object of the
// process: precise pointer slots are censused and validated; opaque areas
// are scanned for likely pointers; immutability and nonupdatability
// invariants are derived. Library objects are scanned only if listed in
// transferLibs (§6: "MCR does not conservatively analyze nor transfer
// shared library state by default"). The process may be serving: reads go
// through the address space's read lock. It is the incremental analysis's
// step from nothing — every resident page to scan (incremental.go).
func AnalyzeProc(p *program.Proc, pol types.Policy, transferLibs map[string]bool) (*Analysis, error) {
	var st procAnalysis
	if _, _, _, err := st.step(p, pol, transferLibs); err != nil {
		return nil, err
	}
	return st.an, nil
}

// AnalyzeInstance analyzes every process of the instance: Resolve over an
// analysis with nothing in it to reuse.
func AnalyzeInstance(inst *program.Instance, pol types.Policy, transferLibs map[string]bool) (map[program.ProcKey]*Analysis, error) {
	out, _, err := NewWarmAnalysis(pol, transferLibs).Resolve(inst)
	return out, err
}

// AggregateStats sums the per-process pointer statistics (Table 2 reports
// per-program aggregates).
func AggregateStats(analyses map[program.ProcKey]*Analysis) PointerStats {
	var total PointerStats
	keys := make([]program.ProcKey, 0, len(analyses))
	for k := range analyses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Seq < keys[j].Seq
	})
	for _, k := range keys {
		total.Add(analyses[k].Stats)
	}
	return total
}

// ImmutableHeapPlan extracts, from an analysis, the global-reallocation
// placement plan for startup-time heap objects (handed to the new
// version's allocator) and the set of non-startup immutable heap objects
// the engine must pre-reserve before startup.
func ImmutableHeapPlan(an *Analysis) (plan map[mem.PlanKey]mem.Addr, reserve []*mem.Object) {
	plan = make(map[mem.PlanKey]mem.Addr)
	for _, o := range an.Immutable {
		if o.Kind != mem.ObjHeap {
			continue
		}
		if o.Startup && o.Site != 0 {
			plan[mem.PlanKey{Site: o.Site, Seq: o.Seq}] = o.Addr
		} else {
			reserve = append(reserve, o)
		}
	}
	sort.Slice(reserve, func(i, j int) bool { return reserve[i].Addr < reserve[j].Addr })
	return plan, reserve
}

// ImmutableStatics extracts the pinned-statics map (symbol -> address) the
// engine passes to the new version's layout, the offline-relinking step.
func ImmutableStatics(an *Analysis) map[string]uint64 {
	out := make(map[string]uint64)
	for _, o := range an.Immutable {
		if o.Kind == mem.ObjStatic && o.Name != "" {
			out[o.Name] = uint64(o.Addr)
		}
	}
	return out
}

// CombinedPlacement merges the global-reallocation requirements of every
// process (§5: "coalescing overlapping memory objects from different
// processes in the old version into 'superobjects' reallocated in the new
// version at startup"). It returns the site/seq placement plan (dropped
// to explicit reservations on cross-process conflicts), the coalesced
// reservation spans for the new root's heap (propagated to children by
// fork semantics), and the union of pinned statics.
func CombinedPlacement(analyses map[program.ProcKey]*Analysis) (map[mem.PlanKey]mem.Addr, []*mem.Object, map[string]uint64) {
	plan := make(map[mem.PlanKey]mem.Addr)
	statics := make(map[string]uint64)
	var rawReserve []*mem.Object
	keys := make([]program.ProcKey, 0, len(analyses))
	for k := range analyses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Seq < keys[j].Seq
	})
	for _, k := range keys {
		an := analyses[k]
		p, r := ImmutableHeapPlan(an)
		for pk, addr := range p {
			if prev, dup := plan[pk]; dup && prev != addr {
				// Same allocation identity pinned at different addresses
				// in different processes (post-fork divergence): fall
				// back to explicit reservations for both.
				delete(plan, pk)
				rawReserve = append(rawReserve,
					&mem.Object{Addr: prev, Size: 16, Kind: mem.ObjHeap},
					&mem.Object{Addr: addr, Size: 16, Kind: mem.ObjHeap})
				continue
			}
			plan[pk] = addr
		}
		rawReserve = append(rawReserve, r...)
		for name, addr := range ImmutableStatics(an) {
			statics[name] = addr
		}
	}
	return plan, coalesce(rawReserve), statics
}

// coalesce merges overlapping or chunk-adjacent reservation ranges into
// superobjects.
func coalesce(objs []*mem.Object) []*mem.Object {
	if len(objs) == 0 {
		return nil
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Addr < objs[j].Addr })
	const headerMargin = 32 // in-band chunk header reserved before user data
	var out []*mem.Object
	cur := &mem.Object{Addr: objs[0].Addr, Size: objs[0].Size, Kind: mem.ObjHeap,
		Name: "mcr:superobject"}
	for _, o := range objs[1:] {
		if o.Addr <= cur.End()+headerMargin {
			if end := o.End(); end > cur.End() {
				cur.Size = uint64(end - cur.Addr)
			}
			continue
		}
		out = append(out, cur)
		cur = &mem.Object{Addr: o.Addr, Size: o.Size, Kind: mem.ObjHeap,
			Name: "mcr:superobject"}
	}
	return append(out, cur)
}
