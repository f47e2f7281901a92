// Package kernel implements the simulated operating-system substrate MCR's
// live-update machinery runs against. The paper depends on a specific set
// of Linux facilities: per-process file-descriptor tables, listening
// sockets whose accept queues survive while both program versions share
// them, fork/clone process and thread creation, pid namespaces that let a
// checkpoint-restart system pin specific ids (CRIU-style), and fd passing
// over Unix domain sockets for global inheritance. This package provides
// those facilities with the same observable semantics so that MCR's
// immutable-object handling (fd numbers, pids) faces the exact clash,
// reuse and inheritance problems the paper solves.
package kernel

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Pid identifies a simulated process or thread.
type Pid int

// Kernel errors mirror the errno cases the servers and MCR care about.
var (
	ErrBadFD        = errors.New("kernel: bad file descriptor")
	ErrAddrInUse    = errors.New("kernel: address already in use")
	ErrPidInUse     = errors.New("kernel: pid already in use")
	ErrTimeout      = errors.New("kernel: timed out") // a deadline passed or a cancel closed
	ErrClosed       = errors.New("kernel: endpoint closed")
	ErrNoProc       = errors.New("kernel: no such process")
	ErrNotListening = errors.New("kernel: socket not listening")
	ErrNotConn      = errors.New("kernel: not a connection")
	ErrNoFile       = errors.New("kernel: no such file")
)

// ReservedFDBase is the start of the reserved, non-reusable fd range used
// for global separability: fds created during v2 startup are allocated
// "in a reserved (nonreusable) range at the end of the file descriptor
// space" (§5) so they can never clash with inherited numbers.
const ReservedFDBase = 10000

// Kernel is the simulated OS instance. One Kernel is shared by all program
// versions and client workloads in a scenario, exactly as a real host
// kernel is shared by the old and new versions during a live update.
//
// Pid namespaces: every root process created with NewProc gets a fresh pid
// namespace; forks and threads stay inside their creator's namespace. This
// is the Linux-namespace facility (§5) that lets the new version restore
// the old version's numeric pids while the old version is still alive.
type Kernel struct {
	mu       sync.Mutex
	nextNS   int
	nss      map[int]*namespace
	ports    map[int]*Object    // bound TCP-like listeners by port
	paths    map[string]*Object // bound Unix-like listeners by path
	fs       map[string]*File
	nextCID  uint64        // connection ids
	activity chan struct{} // edge-triggered poll wakeup
}

type namespace struct {
	id      int
	nextPid Pid
	procs   map[Pid]*Proc
	// reserved pids are skipped by natural (unpinned) allocation and
	// handed out only to a matching PinNextPid — the deterministic pid
	// reservation mutable reinitialization needs so that a new version's
	// unpinned thread creations, racing the pinned replay under real
	// parallelism, can never steal an id the old version still owns.
	reserved map[Pid]bool
}

// New returns an empty kernel with a root filesystem.
func New() *Kernel {
	return &Kernel{
		nss:   make(map[int]*namespace),
		ports: make(map[int]*Object),
		paths: make(map[string]*Object),
		fs:    make(map[string]*File),
	}
}

// Proc is a simulated kernel process: a pid, an fd table, and a parent
// link. Threads share the fd table of their process, so the program layer
// models threads as goroutines issuing syscalls through their Proc.
type Proc struct {
	k      *Kernel
	ns     *namespace
	pid    Pid
	parent Pid

	mu           sync.Mutex
	fds          map[int]*fdEntry
	nextFD       int
	reservedNext int
	reserveMode  bool
	pinNext      []Pid // queued pid pins (namespace CLONE control)
	exited       bool
}

type fdEntry struct {
	obj *Object
}

// Pid returns the process id.
func (p *Proc) Pid() Pid { return p.pid }

// Parent returns the parent pid (0 for roots).
func (p *Proc) Parent() Pid { return p.parent }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// NewProc creates a root process in a fresh pid namespace (like a shell
// spawning the server; during live update, the new version's root).
func (k *Kernel) NewProc() *Proc {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.nextNS++
	ns := &namespace{id: k.nextNS, nextPid: 1, procs: make(map[Pid]*Proc), reserved: make(map[Pid]bool)}
	k.nss[ns.id] = ns
	return k.newProcLocked(ns, 0, 0)
}

func (k *Kernel) newProcLocked(ns *namespace, parent, want Pid) *Proc {
	pid := want
	if pid == 0 {
		for ns.procs[ns.nextPid] != nil || ns.reserved[ns.nextPid] {
			ns.nextPid++
		}
		pid = ns.nextPid
		ns.nextPid++
	} else {
		delete(ns.reserved, pid)
	}
	p := &Proc{
		k:            k,
		ns:           ns,
		pid:          pid,
		parent:       parent,
		fds:          make(map[int]*fdEntry),
		nextFD:       3, // 0,1,2 notionally stdio
		reservedNext: ReservedFDBase,
	}
	ns.procs[pid] = p
	return p
}

// Namespace returns the process's pid-namespace id.
func (p *Proc) Namespace() int { return p.ns.id }

// Proc returns a live process with the given pid in any namespace (first
// match; single-instance scenarios have only one namespace).
func (k *Kernel) Proc(pid Pid) (*Proc, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, ns := range k.nss {
		if p, ok := ns.procs[pid]; ok {
			return p, true
		}
	}
	return nil, false
}

// Procs returns the pids of all live processes across namespaces in
// ascending order (duplicates possible across namespaces).
func (k *Kernel) Procs() []Pid {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []Pid
	for _, ns := range k.nss {
		for pid := range ns.procs {
			out = append(out, pid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PinNextPid queues a pid to be assigned to this process's next Fork (or
// thread creation), the pid-namespace trick user-space checkpoint-restart
// uses to restore ids: "MCR intercepts startup-time thread and process
// creation operations and relies on Linux namespaces to force the kernel
// to assign a specific ID" (§5).
func (p *Proc) PinNextPid(pid Pid) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pinNext = append(p.pinNext, pid)
}

func (p *Proc) takePinLocked() Pid {
	if len(p.pinNext) == 0 {
		return 0
	}
	pid := p.pinNext[0]
	p.pinNext = p.pinNext[1:]
	return pid
}

// ReservePids marks pids as reserved in this process's namespace:
// natural allocation (Fork and NewThreadID without a pin) skips them, and
// a matching pin consumes the reservation. Pids already live in the
// namespace are skipped — they cannot be stolen in the first place. MCR
// reserves every id of the old version's namespace in the new version's
// before startup, so the replayed pinned creations can never lose a race
// against an unpinned creation (e.g. a forked worker's main thread,
// whose tid is not startup-log material).
func (p *Proc) ReservePids(pids []Pid) {
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	for _, pid := range pids {
		if p.ns.procs[pid] == nil {
			p.ns.reserved[pid] = true
		}
	}
}

// ReleaseReservedPids drops every outstanding pid reservation in this
// process's namespace and returns how many were released. MCR calls it
// when an update is finalized — i.e. once the old instance can no longer
// be re-adopted (plain commit, or canary-window close): the old id space
// no longer needs protecting, so natural allocation may reuse it.
func (p *Proc) ReleaseReservedPids() int {
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	n := len(p.ns.reserved)
	for pid := range p.ns.reserved {
		delete(p.ns.reserved, pid)
	}
	return n
}

// ReservedPids returns the pids currently reserved (and not yet consumed
// by a pinned creation) in this process's namespace, ascending.
func (p *Proc) ReservedPids() []Pid {
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	out := make([]Pid, 0, len(p.ns.reserved))
	for pid := range p.ns.reserved {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NamespacePids returns every pid currently bound in this process's
// namespace (processes and thread ids, including ids of exited threads
// whose process is still alive), ascending.
func (p *Proc) NamespacePids() []Pid {
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	out := make([]Pid, 0, len(p.ns.procs))
	for pid := range p.ns.procs {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Fork creates a child process inheriting a copy of the fd table (fork
// semantics: fd numbers preserved, objects shared). If a pid was pinned,
// the child gets it; a pinned pid already in use is an error, surfaced to
// MCR as a reinitialization conflict.
func (p *Proc) Fork() (*Proc, error) {
	p.mu.Lock()
	want := p.takePinLocked()
	fdsCopy := make(map[int]*fdEntry, len(p.fds))
	for n, e := range p.fds {
		e.obj.ref()
		fdsCopy[n] = &fdEntry{obj: e.obj}
	}
	nextFD := p.nextFD
	p.mu.Unlock()

	p.k.mu.Lock()
	if want != 0 && p.ns.procs[want] != nil {
		p.k.mu.Unlock()
		for _, e := range fdsCopy {
			e.obj.unref()
		}
		return nil, fmt.Errorf("%w: %d", ErrPidInUse, want)
	}
	child := p.k.newProcLocked(p.ns, p.pid, want)
	p.k.mu.Unlock()

	child.mu.Lock()
	child.fds = fdsCopy
	child.nextFD = nextFD
	child.mu.Unlock()
	return child, nil
}

// NewThreadID allocates a thread id within the process, honoring pinning
// like Fork does. (Threads share the process image; only the id matters to
// MCR, which must restore ids stored in global data structures.)
func (p *Proc) NewThreadID() (Pid, error) {
	p.mu.Lock()
	want := p.takePinLocked()
	p.mu.Unlock()
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	if want != 0 {
		if p.ns.procs[want] != nil {
			return 0, fmt.Errorf("%w: %d", ErrPidInUse, want)
		}
		delete(p.ns.reserved, want)
		p.ns.procs[want] = p // thread ids resolve to their process
		return want, nil
	}
	for p.ns.procs[p.ns.nextPid] != nil || p.ns.reserved[p.ns.nextPid] {
		p.ns.nextPid++
	}
	tid := p.ns.nextPid
	p.ns.nextPid++
	p.ns.procs[tid] = p
	return tid, nil
}

// Exit terminates the process: all fds are closed and the pid freed.
// Listening sockets shared with other processes stay alive through their
// other references — the property that lets the old version die without
// tearing down inherited connections.
func (p *Proc) Exit() {
	p.mu.Lock()
	if p.exited {
		p.mu.Unlock()
		return
	}
	p.exited = true
	fds := p.fds
	p.fds = make(map[int]*fdEntry)
	p.mu.Unlock()
	for _, e := range fds {
		e.obj.unref()
	}
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	for pid, proc := range p.ns.procs {
		if proc == p {
			delete(p.ns.procs, pid)
		}
	}
	if len(p.ns.procs) == 0 {
		delete(p.k.nss, p.ns.id)
	}
}

// Exited reports whether the process has exited.
func (p *Proc) Exited() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}

// --- fd table management -------------------------------------------------

// SetReserveMode switches new fd allocation into the reserved range
// (global separability for v2 startup) or back to normal.
func (p *Proc) SetReserveMode(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reserveMode = on
}

func (p *Proc) installLocked(obj *Object) int {
	var n int
	if p.reserveMode {
		n = p.reservedNext
		p.reservedNext++ // structurally never reused
	} else {
		for p.fds[p.nextFD] != nil {
			p.nextFD++
		}
		n = p.nextFD
		p.nextFD++
	}
	p.fds[n] = &fdEntry{obj: obj}
	return n
}

// InstallFD places obj at an exact fd number (global inheritance: the new
// version's first process receives every old fd at its original number).
func (p *Proc) InstallFD(n int, obj *Object) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fds[n] != nil {
		return fmt.Errorf("kernel: fd %d busy: %w", n, ErrAddrInUse)
	}
	obj.ref()
	p.fds[n] = &fdEntry{obj: obj}
	return nil
}

// FD resolves an fd number to its kernel object.
func (p *Proc) FD(n int) (*Object, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.fds[n]
	if e == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, n)
	}
	return e.obj, nil
}

// FDs returns the open fd numbers in ascending order.
func (p *Proc) FDs() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.fds))
	for n := range p.fds {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Close closes an fd.
func (p *Proc) Close(n int) error {
	p.mu.Lock()
	e := p.fds[n]
	delete(p.fds, n)
	p.mu.Unlock()
	if e == nil {
		return fmt.Errorf("%w: %d", ErrBadFD, n)
	}
	e.obj.unref()
	return nil
}

// Dup2 duplicates oldfd onto newfd, closing newfd first if open.
func (p *Proc) Dup2(oldfd, newfd int) error {
	p.mu.Lock()
	e := p.fds[oldfd]
	if e == nil {
		p.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrBadFD, oldfd)
	}
	old := p.fds[newfd]
	e.obj.ref()
	p.fds[newfd] = &fdEntry{obj: e.obj}
	p.mu.Unlock()
	if old != nil {
		old.obj.unref()
	}
	return nil
}

// PassFDs transfers the given fd numbers from p to dst, preserving the
// numbers — the SCM_RIGHTS Unix-domain-socket inheritance MCR uses. The
// source keeps its fds (the objects are shared), which is what makes the
// update reversible: rollback finds the old version's fd table untouched.
func (p *Proc) PassFDs(dst *Proc, nums []int) error {
	for _, n := range nums {
		obj, err := p.FD(n)
		if err != nil {
			return err
		}
		if err := dst.InstallFD(n, obj); err != nil {
			return err
		}
	}
	return nil
}
