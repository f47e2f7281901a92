package trace

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/program"
)

// StateDigest hashes an instance's entire object universe — identity
// (address, size, kind, name) and raw contents, in canonical per-process
// index order — into one FNV-64a word. Two instances with equal digests
// hold bit-identical state; a digest taken before and after an event
// proves the event left the state untouched: a rolled-back update must
// hand back exactly the state it checkpointed, and the two schedules of
// one update must leave the same state.
// Contents are hashed in place (foldBytes): nothing is staged per object.
func StateDigest(inst *program.Instance) (uint64, error) {
	h := newFNV64a()
	for _, p := range inst.Procs() {
		for _, o := range p.Index().All() {
			if o.Scratch {
				// Framework-owned overlay metadata is not program state:
				// it is regenerated per version and never read back, and
				// page adoption moves its bytes freely with the frame.
				continue
			}
			fmt.Fprintf(&h, "%x:%x:%d:%s;", o.Addr, o.Size, o.Kind, o.Name)
			err := foldBytes(p.Space(), o.Addr, o.Size, func(_ uint64, data []byte) { h.Write(data) }, h.zeroes)
			if err != nil {
				return 0, fmt.Errorf("trace: digest %s at %#x: %w", p.Key(), o.Addr, err)
			}
		}
	}
	return uint64(h), nil
}

// fnv64a is FNV-1a-64 — the digests hash/fnv's New64a computes, bit for
// bit — with its state in the open, so that a run of zero bytes folds in
// one step: hashing a zero byte only multiplies by the prime, and a run of
// k of them multiplies by prime^k.
type fnv64a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func newFNV64a() fnv64a { return fnvOffset64 }

// Write folds data byte by byte. It never fails: fnv64a is an io.Writer
// for fmt.Fprintf.
func (h *fnv64a) Write(data []byte) (int, error) {
	v := *h
	for _, c := range data {
		v ^= fnv64a(c)
		v *= fnvPrime64
	}
	*h = v
	return len(data), nil
}

// zeroes folds k zero bytes, a whole demand-zero gap at once: one
// multiply by prime^k. The offset is foldBytes' and unused.
func (h *fnv64a) zeroes(_, k uint64) { *h *= fnvPrimePow(k) }

// fnvPrimePow returns prime^k modulo 2^64, by squaring: O(log k).
func fnvPrimePow(k uint64) fnv64a {
	r, b := fnv64a(1), fnv64a(fnvPrime64)
	for ; k > 0; k >>= 1 {
		if k&1 != 0 {
			r *= b
		}
		b *= b
	}
	return r
}

// foldBytes hands the n bytes at addr — what ReadAt would return — to two
// callbacks in ascending order, off being a piece's offset from addr:
// resident fragments, in place (mem.WalkResident), to data, and the
// length k of each demand-zero gap between them to zeroes, which never
// sees the zero bytes themselves. data runs under WalkResident's contract
// (read lock held: no retaining, no writing, no calls into as). On error
// the callbacks have seen a prefix of the range.
func foldBytes(as *mem.AddressSpace, addr mem.Addr, n uint64, data func(off uint64, b []byte), zeroes func(off, k uint64)) error {
	next := addr
	err := as.WalkResident(addr, n, func(base mem.Addr, b []byte) {
		if base > next {
			zeroes(uint64(next-addr), uint64(base-next))
		}
		data(uint64(base-addr), b)
		next = base + mem.Addr(len(b))
	})
	if err != nil {
		return err
	}
	if end := addr + mem.Addr(n); end > next {
		zeroes(uint64(next-addr), uint64(end-next))
	}
	return nil
}
