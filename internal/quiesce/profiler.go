package quiesce

import (
	"sort"
	"sync"
	"time"
)

// Profiler implements MCR's quiescence profiler (§4): it observes a
// program under an execution-stalling test workload and infers, per thread
// class, (a) whether the class is short- or long-lived, (b) the long-lived
// loop, and (c) the quiescent point — "the blocking call where a given
// thread spends most of its time" — plus whether that point is persistent
// (visible right after startup) or volatile (appears only later, e.g. in
// dynamically spawned per-connection threads).
type Profiler struct {
	mu      sync.Mutex
	classes map[string]*classProfile
	active  bool
	since   time.Time // start of the current active window
	open    map[int64]openBlock
	ended   uint64 // blocks ended while active
	now     func() time.Time
}

// openBlock is one thread's blocking call in progress.
type openBlock struct {
	class, site string
	began       time.Time
}

type classProfile struct {
	name          string
	startedDuring bool // first instance started during startup
	liveThreads   int
	everExited    bool
	blockSites    map[string]time.Duration // callsite -> cumulative residency
	loops         map[string]*loopProfile
}

type loopProfile struct {
	name       string
	depth      int
	iterations uint64
	exits      uint64
}

// NewProfiler returns an inactive profiler; Start begins sample collection.
func NewProfiler() *Profiler {
	return &Profiler{
		classes: make(map[string]*classProfile),
		open:    make(map[int64]openBlock),
		now:     time.Now,
	}
}

// Start enables sample collection.
func (p *Profiler) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		p.active, p.since = true, p.now()
	}
}

// Stop disables sample collection. Blocks still open are credited with
// their residency up to now.
func (p *Profiler) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return
	}
	now := p.now()
	for _, b := range p.open {
		p.credit(b, now)
	}
	p.active = false
}

func (p *Profiler) class(name string) *classProfile {
	c := p.classes[name]
	if c == nil {
		c = &classProfile{
			name:       name,
			blockSites: make(map[string]time.Duration),
			loops:      make(map[string]*loopProfile),
		}
		p.classes[name] = c
	}
	return c
}

// ThreadStarted records a thread of the given class starting.
// duringStartup distinguishes persistent from volatile quiescent points.
func (p *Profiler) ThreadStarted(class string, duringStartup bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.class(class)
	if c.liveThreads == 0 && !c.everExited && duringStartup {
		c.startedDuring = true
	}
	c.liveThreads++
}

// ThreadEnded records a thread of the given class exiting.
func (p *Profiler) ThreadEnded(class string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.class(class)
	c.liveThreads--
	c.everExited = true
}

// BlockBegin notes that thread id of the given class is blocking at the
// callsite. Residency is attributed when the block ends, or by Report
// while it is still open: an edge-triggered wait that never sees its
// event never ends, and the statistical library-call profiling of §4 must
// still see where the thread sits.
func (p *Profiler) BlockBegin(id int64, class, site string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.open[id] = openBlock{class: class, site: site, began: p.now()}
}

// BlockEnd attributes thread id's open block's residency to its callsite.
func (p *Profiler) BlockEnd(id int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.open[id]
	if !ok {
		return
	}
	delete(p.open, id)
	if p.active {
		p.credit(b, p.now())
		p.ended++
	}
}

// BlocksEnded returns how many blocks ended while the profiler was
// active: with edge-triggered waits, one per event a thread woke for.
func (p *Profiler) BlocksEnded() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ended
}

// credit adds the active part of b's residency up to now to its site.
func (p *Profiler) credit(b openBlock, now time.Time) {
	if d := p.activeSpan(b, now); d > 0 {
		p.class(b.class).blockSites[b.site] += d
	}
}

// activeSpan is the part of b's residency up to now that fell while the
// profiler was active.
func (p *Profiler) activeSpan(b openBlock, now time.Time) time.Duration {
	if !p.active {
		return 0
	}
	if b.began.Before(p.since) {
		b.began = p.since
	}
	return now.Sub(b.began)
}

// RecordLoopIter attributes one iteration to a loop at the given nesting
// depth (standard loop profiling).
func (p *Profiler) RecordLoopIter(class, loop string, depth int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active {
		return
	}
	c := p.class(class)
	lp := c.loops[loop]
	if lp == nil {
		lp = &loopProfile{name: loop, depth: depth}
		c.loops[loop] = lp
	}
	lp.iterations++
}

// RecordLoopExit notes that a loop terminated during the workload,
// disqualifying it as long-lived.
func (p *Profiler) RecordLoopExit(class, loop string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.class(class)
	if lp := c.loops[loop]; lp != nil {
		lp.exits++
	}
}

// ThreadClass is one entry of the profiler report.
type ThreadClass struct {
	Name           string
	LongLived      bool
	Loop           string // deepest never-terminating loop ("" if short-lived)
	QuiescentPoint string // blocking callsite with maximum residency
	Persistent     bool   // visible right after startup
}

// Report summarizes a profiling run (the per-program quiescence report of
// Table 1: SL, LL, QP, Per, Vol).
type Report struct {
	Classes []ThreadClass
}

// ShortLived returns the number of short-lived thread classes.
func (r Report) ShortLived() int {
	n := 0
	for _, c := range r.Classes {
		if !c.LongLived {
			n++
		}
	}
	return n
}

// LongLived returns the number of long-lived thread classes.
func (r Report) LongLived() int { return len(r.Classes) - r.ShortLived() }

// QuiescentPoints returns the number of quiescent points identified.
func (r Report) QuiescentPoints() int {
	n := 0
	for _, c := range r.Classes {
		if c.LongLived && c.QuiescentPoint != "" {
			n++
		}
	}
	return n
}

// Persistent returns the number of persistent quiescent points.
func (r Report) Persistent() int {
	n := 0
	for _, c := range r.Classes {
		if c.LongLived && c.QuiescentPoint != "" && c.Persistent {
			n++
		}
	}
	return n
}

// Volatile returns the number of volatile quiescent points.
func (r Report) Volatile() int { return r.QuiescentPoints() - r.Persistent() }

// Class returns the report entry for a class name.
func (r Report) Class(name string) (ThreadClass, bool) {
	for _, c := range r.Classes {
		if c.Name == name {
			return c, true
		}
	}
	return ThreadClass{}, false
}

// Report produces the profiling report. A class is long-lived if at least
// one thread of the class is still alive at report time; its loop is the
// deepest loop that iterated but never exited; its quiescent point is the
// highest-residency blocking site, counting blocks still open at report
// time up to now.
func (p *Profiler) Report() Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Blocks still open count up to now.
	now := p.now()
	open := make(map[string]map[string]time.Duration)
	for _, b := range p.open {
		if open[b.class] == nil {
			open[b.class] = make(map[string]time.Duration)
		}
		open[b.class][b.site] += p.activeSpan(b, now)
	}
	var rep Report
	names := make([]string, 0, len(p.classes))
	for n := range p.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := p.classes[n]
		tc := ThreadClass{Name: n, Persistent: c.startedDuring}
		if c.liveThreads > 0 {
			tc.LongLived = true
			// Deepest loop that never terminated.
			best := -1
			for _, lp := range c.loops {
				if lp.exits == 0 && lp.iterations > 0 && lp.depth > best {
					best = lp.depth
					tc.Loop = lp.name
				}
			}
			// Highest-residency blocking site.
			residency := make(map[string]time.Duration, len(c.blockSites))
			for s, d := range c.blockSites {
				residency[s] = d
			}
			for s, d := range open[n] {
				residency[s] += d
			}
			var max time.Duration
			sites := make([]string, 0, len(residency))
			for s := range residency {
				sites = append(sites, s)
			}
			sort.Strings(sites) // deterministic tie-break
			for _, s := range sites {
				if d := residency[s]; d > max {
					max = d
					tc.QuiescentPoint = s
				}
			}
		}
		rep.Classes = append(rep.Classes, tc)
	}
	return rep
}
