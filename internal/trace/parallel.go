package trace

import (
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// visitedStripes is the lock striping factor of the shared visited set.
// Power of two so the stripe index is a mask; 64 stripes keep contention
// negligible up to any realistic worker count.
const visitedStripes = 64

// visitedSet is a lock-striped address set: the parallel BFS's shared
// "already queued" state. Objects never share a start address, so striping
// by address bits gives contention-free claims for unrelated objects.
type visitedSet struct {
	stripes [visitedStripes]visitedStripe
}

type visitedStripe struct {
	mu sync.Mutex
	m  map[mem.Addr]bool
	// Pad the 16 bytes of mutex + map header to a full 64-byte cache
	// line so neighboring stripes don't false-share.
	_ [48]byte
}

func newVisitedSet() *visitedSet {
	v := &visitedSet{}
	for i := range v.stripes {
		v.stripes[i].m = make(map[mem.Addr]bool)
	}
	return v
}

// claim marks addr visited and reports whether this call was the first to
// do so (the caller then owns enqueueing the object).
func (v *visitedSet) claim(addr mem.Addr) bool {
	// Low bits are alignment; bits above the 16-byte granule spread well.
	s := &v.stripes[(uint64(addr)>>4)%visitedStripes]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m[addr] {
		return false
	}
	s.m[addr] = true
	return true
}

// scanFailure is one object whose pointer scan failed; failures are merged
// by object address so the reported error does not depend on worker
// scheduling.
type scanFailure struct {
	addr mem.Addr
	err  error
}

func mergeFailure(cur scanFailure, addr mem.Addr, err error) scanFailure {
	if cur.err == nil || addr < cur.addr {
		return scanFailure{addr: addr, err: err}
	}
	return cur
}

// workQueue is the shared BFS worklist: a LIFO of claimed-but-unscanned
// objects plus a pending count (queued + in flight) for termination
// detection. LIFO keeps the hot end of the queue in cache and needs no
// wave barriers, so deep chains (linked lists) cost one queue operation
// per object instead of one synchronization round per level.
type workQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []*mem.Object
	pending int
}

func newWorkQueue(initial []*mem.Object) *workQueue {
	q := &workQueue{items: append([]*mem.Object(nil), initial...), pending: len(initial)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *workQueue) push(o *mem.Object) {
	q.mu.Lock()
	q.items = append(q.items, o)
	q.pending++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until an item is available or the queue has fully drained
// (no queued items and none in flight), returning nil in the latter case.
func (q *workQueue) pop() *mem.Object {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && q.pending > 0 {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil
	}
	o := q.items[len(q.items)-1]
	q.items = q.items[:len(q.items)-1]
	return o
}

// taskDone retires one in-flight item (its successors were already
// pushed); the last retirement wakes every blocked worker to exit.
func (q *workQueue) taskDone() {
	q.mu.Lock()
	q.pending--
	if q.pending == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// discoverParallel is the worker-pool graph traversal: workers pull
// objects off the shared worklist, claim successors through the striped
// visited set, and push the ones they won. Newly discovered objects
// accumulate in worker-local lists merged at the end; the caller
// canonicalizes the result order, so traversal order is free to be
// nondeterministic.
func (pt *procTransfer) discoverParallel(roots []*mem.Object, workers int) ([]*mem.Object, error) {
	visited := newVisitedSet()
	var initial []*mem.Object
	for _, o := range roots {
		if visited.claim(o.Addr) {
			initial = append(initial, o)
		}
	}
	q := newWorkQueue(initial)
	locals := make([][]*mem.Object, workers)
	fails := make([]scanFailure, workers)
	// Cancellation drains the queue instead of abandoning it: a worker
	// that returned early would strand the pending count and deadlock the
	// others in pop, so canceled workers keep popping (skipping the scan,
	// which also stops new pushes) until the queue runs dry.
	var canceled atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := newResolver(pt.oldObjs, pt.opts.Policy)
			for {
				o := q.pop()
				if o == nil {
					return
				}
				if canceled.Load() || pt.canceled() {
					canceled.Store(true)
					q.taskDone()
					continue
				}
				err := pt.scanObject(o, r, func(t *mem.Object) {
					if visited.claim(t.Addr) {
						locals[k] = append(locals[k], t)
						q.push(t)
					}
				})
				if err != nil {
					fails[k] = mergeFailure(fails[k], o.Addr, err)
				}
				q.taskDone()
			}
		}(k)
	}
	wg.Wait()
	if canceled.Load() {
		return nil, ErrCanceled
	}
	var fail scanFailure
	for _, f := range fails {
		if f.err != nil {
			fail = mergeFailure(fail, f.addr, f.err)
		}
	}
	if fail.err != nil {
		return nil, fail.err
	}
	out := initial
	for _, l := range locals {
		out = append(out, l...)
	}
	return out, nil
}

// copyContentsParallel fans the paired objects out to a worker pool. All
// pairs are processed even when one conflicts — the extra work is bounded
// and discarded by rollback anyway — so the returned error is always the
// lowest-index conflict, exactly the one the sequential pass hits first.
func (pt *procTransfer) copyContentsParallel(reachable []*mem.Object, workers int) error {
	w := workers
	if w > len(reachable) {
		w = len(reachable)
	}
	shards := make([]Stats, w)
	errs := make([]error, len(reachable))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(reachable) {
					return
				}
				errs[i] = pt.transferOne(reachable[i], &shards[k])
			}
		}(k)
	}
	wg.Wait()
	for _, s := range shards {
		pt.stats.Add(s)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
