package trace

import (
	"fmt"
	"hash/fnv"

	"repro/internal/mem"
	"repro/internal/program"
)

// StateDigest hashes an instance's entire object universe — identity
// (address, size, kind, name) and raw contents, in canonical per-process
// index order — into one FNV-64a word. Two instances with equal digests
// hold bit-identical state; a digest taken before and after an event
// proves the event left the state untouched. The canary layer leans on
// this twice: the old instance's digest must not drift while it sits
// adoptable behind an open window (its warm shadows stay valid), and a
// reverted update must hand back exactly the state it checkpointed.
// Contents are hashed in place (foldBytes): nothing is staged per object.
func StateDigest(inst *program.Instance) (uint64, error) {
	h := fnv.New64a()
	for _, p := range inst.Procs() {
		for _, o := range p.Index().All() {
			if o.Scratch {
				// Framework-owned overlay metadata is not program state:
				// it is regenerated per version and never read back, and
				// page adoption moves its bytes freely with the frame.
				continue
			}
			fmt.Fprintf(h, "%x:%x:%d:%s;", o.Addr, o.Size, o.Kind, o.Name)
			err := foldBytes(p.Space(), o.Addr, o.Size, func(_ uint64, data []byte) { h.Write(data) })
			if err != nil {
				return 0, fmt.Errorf("trace: digest %s at %#x: %w", p.Key(), o.Addr, err)
			}
		}
	}
	return h.Sum64(), nil
}

// zeroPage stands in for the pages foldBytes finds absent. Read-only.
var zeroPage [mem.PageSize]byte

// foldBytes hands fn the n bytes at addr — what ReadAt would return — in
// ascending pieces of at most a page, off being a piece's offset from
// addr: resident fragments in place (mem.WalkResident), the demand-zero
// gaps between them as slices of one static zero page. fn runs under
// WalkResident's contract (read lock held: no retaining, no writing, no
// calls into as). On error fn has seen a prefix of the range.
func foldBytes(as *mem.AddressSpace, addr mem.Addr, n uint64, fn func(off uint64, data []byte)) error {
	next := addr
	zeroesTo := func(stop mem.Addr) {
		for next < stop {
			k := stop - next
			if k > mem.PageSize {
				k = mem.PageSize
			}
			fn(uint64(next-addr), zeroPage[:k])
			next += k
		}
	}
	err := as.WalkResident(addr, n, func(base mem.Addr, data []byte) {
		zeroesTo(base)
		fn(uint64(base-addr), data)
		next = base + mem.Addr(len(data))
	})
	if err != nil {
		return err
	}
	zeroesTo(addr + mem.Addr(n))
	return nil
}
