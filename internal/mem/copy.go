package mem

import "fmt"

// CopyRange copies size bytes from srcAddr in src to dstAddr in dst, page
// to page: the result reads as what src.ReadAt into a buffer followed by
// dst.WriteAt of that buffer leaves — the same bytes, every destination
// page the copy writes soft-dirty, dst's Mutations advanced — without the
// buffer: one memmove per source-page/destination-page overlap, which is
// one per page when the two addresses agree mod PageSize. The two
// addresses need not.
//
// A bulk move never materializes a page that is absent on both sides: a
// destination page that is absent, and whose fragment draws only on
// absent source pages, stays absent — it already reads as the zeroes the
// copy would store — with no soft-dirty bit and no stamp. That is where
// the result differs from the staged copy, which leaves a fresh dirty
// zero page. Every other page is written: an absent source page over a
// resident destination page clears it, and a fragment with any resident
// source byte materializes its page.
//
// Both whole ranges are checked before the first byte moves: a range that
// leaves either mapping fails with ErrUnmapped and writes nothing. The copy
// then proceeds in chunks of at most walkChunkPages pages, each under src's
// read lock and dst's write lock, always taken in that order — source (the
// old version) before destination (the new one), the order MoveFrames
// uses. Like WalkResident it is not a snapshot of the whole range: a store
// to src may land between two chunks. src and dst must differ.
func CopyRange(dst *AddressSpace, dstAddr Addr, src *AddressSpace, srcAddr Addr, size uint64) error {
	if src == dst {
		return fmt.Errorf("mem: CopyRange within one address space")
	}
	for check := size; size > 0; check = 0 { // the first chunk vouches for the whole range
		n := min(size, walkChunkPages*PageSize)
		if err := copyChunk(dst, dstAddr, src, srcAddr, n, max(n, check)); err != nil {
			return err
		}
		dstAddr, srcAddr, size = dstAddr+Addr(n), srcAddr+Addr(n), size-n
	}
	return nil
}

// copyChunk copies n bytes under one hold of both locks, after checking
// check (>= n) bytes of both ranges.
func copyChunk(dst *AddressSpace, da Addr, src *AddressSpace, sa Addr, n, check uint64) error {
	src.mu.RLock()
	defer src.mu.RUnlock()
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if err := src.checkRangeLocked(sa, check); err != nil {
		return err
	}
	if err := dst.checkRangeLocked(da, check); err != nil {
		return err
	}
	dst.mutations++
	for end := da + Addr(n); da < end; {
		dpb := PageBase(da)
		stop := dpb + PageSize
		if stop > end {
			stop = end
		}
		dp := dst.pages[dpb]
		fresh := dp == nil
		if fresh {
			// The fragment draws on at most two source pages: when both
			// are absent it is zeroes onto zeroes, and the page stays
			// demand-zero.
			if src.pages[PageBase(sa)] == nil && src.pages[PageBase(sa+(stop-da)-1)] == nil {
				sa += stop - da
				da = stop
				continue
			}
			dp = &page{}
			dst.pages[dpb] = dp
		}
		dp.softDirty = true
		dp.stamp = dst.mutations
		// This destination fragment draws on at most two source pages.
		for da < stop {
			spb := PageBase(sa)
			k := spb + PageSize - sa
			if rem := stop - da; k > rem {
				k = rem
			}
			to := dp.data[da-dpb : da-dpb+k]
			if sp := src.pages[spb]; sp != nil {
				copy(to, sp.data[sa-spb:])
			} else if !fresh {
				clear(to)
			}
			da, sa = da+k, sa+k
		}
	}
	return nil
}
