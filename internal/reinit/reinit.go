// Package reinit implements mutable reinitialization (§5): the controlled
// startup of the new program version that replays the old version's
// startup log for operations on immutable state objects, inherits those
// objects (fd numbers, pids, memory addresses) via global inheritance, and
// keeps them unambiguous via global separability.
package reinit

import (
	"fmt"
	"sync"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/replaylog"
)

// MarkLogs runs the update-time immutable-marking pass over every old
// process's startup log: an operation is immutable — and therefore
// replayed — iff it manipulates external state the new version must
// inherit. Process and thread creations always replay (pids are immutable,
// class iii); fd operations replay iff every involved fd is still open at
// update time (an fd opened and closed again carries no inheritable
// kernel state, so the new version re-executes those operations live).
func MarkLogs(old *program.Instance) {
	for _, p := range old.Procs() {
		log := p.Log()
		if log == nil {
			continue
		}
		live := make(map[int]bool)
		for _, fd := range p.KProc().FDs() {
			live[fd] = true
		}
		log.MarkImmutable(func(r *replaylog.Record) bool {
			switch r.Call {
			case "fork", "thread_create", "exec", "daemonize":
				return true
			}
			if len(r.FDs) == 0 {
				return false
			}
			for _, fd := range r.FDs {
				if !live[fd] {
					return false
				}
			}
			return true
		})
	}
}

// Manager drives mutable reinitialization for one update: it implements
// program.Interceptor (replay) for the new instance and the OnProcCreated
// hook (per-process replay wiring, reserved fd mode, hierarchical fd
// inheritance).
type Manager struct {
	old      *program.Instance
	strategy replaylog.Strategy

	mu        sync.Mutex
	replayers map[program.ProcKey]*replaylog.Replayer
}

// NewManager builds the reinitialization manager for an update from old.
// MarkLogs must have run already (the engine does both).
func NewManager(old *program.Instance, strategy replaylog.Strategy) *Manager {
	m := &Manager{
		old:       old,
		strategy:  strategy,
		replayers: make(map[program.ProcKey]*replaylog.Replayer),
	}
	for _, p := range old.Procs() {
		if log := p.Log(); log != nil {
			m.replayers[p.Key()] = replaylog.NewReplayer(log, strategy)
		}
	}
	return m
}

// OnProcCreated wires a new-version process for reinitialization: reserved
// fd allocation (global separability) and inheritance of the old
// counterpart's fds at their original numbers (global inheritance,
// propagated down the process hierarchy). It is installed as the new
// instance's OnProcCreated option.
func (m *Manager) OnProcCreated(p *program.Proc) {
	p.KProc().SetReserveMode(true)
	oldProc, ok := m.old.ProcByKey(p.Key())
	if !ok {
		return
	}
	for _, fd := range oldProc.KProc().FDs() {
		obj, err := oldProc.KProc().FD(fd)
		if err != nil {
			continue
		}
		// Fork-propagated fds are already present at the right number
		// (same object); install only what is missing.
		if existing, err := p.KProc().FD(fd); err == nil {
			if existing != obj {
				p.Instance().Fail(fmt.Errorf("%w: inherited fd %d in %s resolves to a different object",
					program.ErrConflict, fd, p.Key()))
			}
			continue
		}
		if err := p.KProc().InstallFD(fd, obj); err != nil {
			p.Instance().Fail(fmt.Errorf("%w: inherit fd %d into %s: %v",
				program.ErrConflict, fd, p.Key(), err))
		}
	}
}

// Before implements program.Interceptor: conservative matching against the
// old startup log of the process's counterpart.
func (m *Manager) Before(t *program.Thread, c *program.Call) (bool, error) {
	m.mu.Lock()
	rp := m.replayers[t.Proc().Key()]
	m.mu.Unlock()
	if rp == nil {
		// No old counterpart (a process the update added): all live.
		return false, nil
	}
	rec, outcome := rp.Match(c.StackID, c.Stack, c.Name, c.Args)
	switch outcome {
	case replaylog.Live:
		return false, nil
	case replaylog.Conflicted:
		conflicts := rp.Conflicts()
		return false, fmt.Errorf("replay: %s", conflicts[len(conflicts)-1])
	}
	// Replayed.
	switch c.Name {
	case "fork", "thread_create", "exec":
		// Creation operations execute live with the recorded id pinned:
		// the pid is the immutable object, the process is real.
		if rec.Pid != 0 {
			t.Proc().KProc().PinNextPid(kernel.Pid(rec.Pid))
		}
		return false, nil
	default:
		// Pure immutable-object operations are not executed: the object
		// (fd and its in-kernel state) was inherited; the recorded result
		// gives the program the illusion of a fresh start.
		c.Result = rec.Result
		c.FDs = append([]int(nil), rec.FDs...)
		c.Pid = rec.Pid
		return true, nil
	}
}

var _ program.Interceptor = (*Manager)(nil)

// Leftovers returns, per process, the immutable records the new version's
// startup never consumed. Nonempty leftovers are a conflict: the update
// omitted a startup operation on inherited state.
func (m *Manager) Leftovers() map[program.ProcKey][]replaylog.Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[program.ProcKey][]replaylog.Record)
	for key, rp := range m.replayers {
		if left := rp.Leftover(); len(left) > 0 {
			out[key] = left
		}
	}
	return out
}

// ReplayStats aggregates (replayed, live, conflicted) counts across all
// processes.
func (m *Manager) ReplayStats() (replayed, live, conflicted int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rp := range m.replayers {
		r, l, c := rp.Stats()
		replayed += r
		live += l
		conflicted += c
	}
	return replayed, live, conflicted
}

// Sessions collects the live client sessions of the old version whose
// quiescent states the new startup cannot recreate: processes created
// after startup (per-connection handlers) and their connection fds. The
// engine passes them to the version's reinitialization handlers.
func Sessions(old *program.Instance) []program.SessionInfo {
	var out []program.SessionInfo
	for _, p := range old.Procs() {
		if p.Log() != nil {
			continue // startup-time process: recreated by the startup code
		}
		si := program.SessionInfo{
			Key:   p.Key(),
			Pid:   int(p.KProc().Pid()),
			Class: p.MainClass(),
		}
		for _, fd := range p.KProc().FDs() {
			obj, err := p.KProc().FD(fd)
			if err != nil {
				continue
			}
			if obj.Kind() == kernel.ObjConn {
				si.ConnFDs = append(si.ConnFDs, fd)
			}
		}
		out = append(out, si)
	}
	return out
}

// CollectUnused closes, in the new instance's processes, inherited fds
// that no old counterpart holds — "all the immutable objects that do not
// participate in replay operations in a given process are simply garbage
// collected when control migration completes" (§5).
func CollectUnused(old, new *program.Instance) int {
	collected := 0
	for _, np := range new.Procs() {
		op, ok := old.ProcByKey(np.Key())
		if !ok {
			continue
		}
		oldFDs := make(map[int]bool)
		for _, fd := range op.KProc().FDs() {
			oldFDs[fd] = true
		}
		for _, fd := range np.KProc().FDs() {
			if fd >= kernel.ReservedFDBase || oldFDs[fd] {
				continue
			}
			// Inherited from a sibling branch but unused here.
			obj, err := np.KProc().FD(fd)
			if err != nil || obj.Kind() == kernel.ObjListener {
				continue
			}
			_ = np.KProc().Close(fd)
			collected++
		}
	}
	return collected
}

// ReservedModeOff exits reserved-fd allocation in every process of the new
// instance (control migration complete).
func ReservedModeOff(inst *program.Instance) {
	for _, p := range inst.Procs() {
		p.KProc().SetReserveMode(false)
	}
}

// ReserveIDs applies the pid side of global separability to the new
// instance before startup: every id bound in the old version's namespace
// — process pids, live thread ids, and the ids of short-lived startup
// threads whose process still runs — is reserved in the new version's
// namespace. Unpinned creations (a forked worker's main thread tid is
// not startup-log material) then allocate around the old id space, so a
// pinned replay racing them under real parallelism can never find its id
// stolen. Without this, the httpd worker-pool replay intermittently
// conflicts ("pid already in use") at GOMAXPROCS >= 4.
func ReserveIDs(old *program.Instance, newRoot *program.Proc) {
	newRoot.KProc().ReservePids(old.Root().KProc().NamespacePids())
}

// ReleaseIDs is ReserveIDs' closing bracket: once an update commits and
// the old instance is terminated, the old version's id space no longer
// needs protecting and the outstanding reservations are dropped, letting
// natural allocation reuse those pids.
func ReleaseIDs(newRoot *program.Proc) int {
	return newRoot.KProc().ReleaseReservedPids()
}

// InheritPlacement applies the memory side of global inheritance to the
// new instance's root before startup: the placement plan for immutable
// startup-time heap objects and explicit reservations for immutable
// post-startup heap objects ("superobjects reallocated in the new version
// at startup", §5).
func InheritPlacement(root *program.Proc, plan map[mem.PlanKey]mem.Addr, reserve []*mem.Object) error {
	root.Heap().SetPlacementPlan(plan)
	for _, o := range reserve {
		if _, err := root.Heap().AllocAt(o.Addr, o.Size, nil, o.Site); err != nil {
			return fmt.Errorf("reinit: reserve immutable %s: %w", o, err)
		}
	}
	return nil
}
