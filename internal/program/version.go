// Package program implements the model in which "C server programs" are
// written against the simulated substrate. A Version describes one release
// of a server: its type registry, global variables, shared libraries,
// annotations and main function. An Instance is a running Version: a tree
// of Procs (simulated processes, each with its own address space, heap and
// startup log) running Threads (goroutines with explicit C-like call
// stacks, so that every syscall carries the version-agnostic call-stack ID
// MCR's record-replay matching needs).
//
// The package also hosts the instrumentation layers of Table 3
// (unblockification, static allocator instrumentation, dynamic
// instrumentation, quiescence detection), switchable per instance so the
// overhead benchmarks can measure each increment.
package program

import (
	"errors"
	"fmt"

	"repro/internal/mem"
	"repro/internal/types"
)

// Common control-flow errors.
var (
	// ErrStopped tells a server loop to unwind: its thread was released
	// with an Abort directive (instance terminating) or the instance is
	// shutting down.
	ErrStopped = errors.New("program: thread stopped")
	// ErrConflict marks a mutable-reinitialization conflict surfaced
	// through a startup syscall (replay mismatch).
	ErrConflict = errors.New("program: reinitialization conflict")
)

// GlobalSpec declares one global variable of a program version.
type GlobalSpec struct {
	Name string
	// Type names a registered type; empty Type with Size > 0 declares an
	// untyped (opaque) global blob.
	Type string
	Size uint64
}

// LibSpec declares one shared library the program links against,
// contributing uninstrumented state: an opaque data blob plus optionally
// some typed symbols. Libraries are pre-linked: every version maps them at
// the same addresses (§5, global reallocation).
type LibSpec struct {
	Name      string
	StateSize uint64 // opaque library state bytes
}

// ProcKey identifies a process across versions: the call-stack ID of its
// creation site plus the per-site ordinal (§6: processes are matched by
// "the same creation-time call stack ID").
type ProcKey struct {
	Site uint64
	Seq  uint64
}

// RootKey is the ProcKey of the root process of every instance.
var RootKey = ProcKey{Site: 0, Seq: 0}

func (k ProcKey) String() string {
	if k == RootKey {
		return "root"
	}
	return fmt.Sprintf("proc(%#x/%d)", k.Site, k.Seq)
}

// TransferContext is the interface state transfer hands to object-level
// annotations (MCR_ADD_OBJ_HANDLER). Implemented by the trace package.
type TransferContext interface {
	// OldProc and NewProc return the process pair being transferred.
	OldProc() *Proc
	NewProc() *Proc
	// RemapPtr translates an old-version pointer value to the new
	// version's address for the same logical object. The boolean is false
	// when the value does not point into any transferred object.
	RemapPtr(old uint64) (uint64, bool)
	// DefaultTransfer applies the automatic transformation (copy +
	// pointer remap + type diff) the handler is overriding, for handlers
	// that only post-process.
	DefaultTransfer(oldObj, newObj *mem.Object) error
}

// ObjHandler is a user traversal handler for one global object, applied by
// state transfer instead of the automatic transformation. The paper's
// example: nginx pointers carrying metadata in their low bits, which the
// handler must strip, remap, and re-encode.
//
// The handlers of one process run one at a time, in address order of their
// old objects, interleaved with the automatic copies. Processes transfer
// concurrently, each against its own old/new process pair, so a handler
// must touch no process but tc's OldProc and NewProc.
type ObjHandler func(tc TransferContext, oldObj, newObj *mem.Object) error

// SessionInfo describes one live client session inherited from the old
// version, for reinitialization handlers that must respawn its handler
// process/thread (volatile quiescent points, §5/§7).
type SessionInfo struct {
	// Key is the old handler process's creation key (RootKey when the
	// session lived in the root process).
	Key ProcKey
	// Pid is the old handler process's pid, to be pinned on the re-fork
	// (pids are immutable state objects).
	Pid int
	// ConnFDs are the session's connection fd numbers (inherited).
	ConnFDs []int
	// Class is the thread class that served the session.
	Class string
}

// ReinitInfo is what a reinitialization handler receives: the freshly
// started new instance, the sessions whose quiescent states the startup
// code did not recreate, and the old version's live threads (to restore
// volatile threads inside recreated worker processes).
type ReinitInfo struct {
	New        *Instance
	Sessions   []SessionInfo
	OldThreads []ThreadInfo
}

// ReinitHandler is a user annotation (MCR_ADD_REINIT_HANDLER) that
// restores quiescent states not automatically recreated by startup — e.g.
// forking one handler process per live session at its session-loop
// quiescent point.
type ReinitHandler func(ri *ReinitInfo) error

// Annotations collects a version's MCR annotations and their bookkeeping
// for the engineering-effort accounting of Table 1.
type Annotations struct {
	objHandlers    map[string]ObjHandler
	objHandlerLOC  map[string]int
	reinitHandlers []ReinitHandler
	reinitLOC      []int
	annotationLOC  int // non-handler annotation lines (e.g. config tweaks)
}

// NewAnnotations returns an empty annotation set.
func NewAnnotations() *Annotations {
	return &Annotations{
		objHandlers:   make(map[string]ObjHandler),
		objHandlerLOC: make(map[string]int),
	}
}

// AddObjHandler registers a state annotation for the named global
// (MCR_ADD_OBJ_HANDLER in Listing 1). loc documents the handler's size in
// source lines for the engineering-effort report.
func (a *Annotations) AddObjHandler(global string, loc int, h ObjHandler) {
	a.objHandlers[global] = h
	a.objHandlerLOC[global] = loc
}

// AddReinitHandler registers a reinitialization annotation
// (MCR_ADD_REINIT_HANDLER in Listing 1).
func (a *Annotations) AddReinitHandler(loc int, h ReinitHandler) {
	a.reinitHandlers = append(a.reinitHandlers, h)
	a.reinitLOC = append(a.reinitLOC, loc)
}

// AddAnnotationLOC accounts for inline annotations that are not handlers
// (e.g. httpd's 8 LOC to skip its running-instance check under MCR).
func (a *Annotations) AddAnnotationLOC(loc int) { a.annotationLOC += loc }

// ObjHandler returns the handler registered for a global, if any.
func (a *Annotations) ObjHandler(global string) (ObjHandler, bool) {
	if a == nil {
		return nil, false
	}
	h, ok := a.objHandlers[global]
	return h, ok
}

// ReinitHandlers returns the registered reinitialization handlers.
func (a *Annotations) ReinitHandlers() []ReinitHandler {
	if a == nil {
		return nil
	}
	return a.reinitHandlers
}

// TotalLOC returns the total annotation LOC (Table 1 "Ann LOC" analog).
func (a *Annotations) TotalLOC() int {
	if a == nil {
		return 0
	}
	total := a.annotationLOC
	for _, l := range a.objHandlerLOC {
		total += l
	}
	for _, l := range a.reinitLOC {
		total += l
	}
	return total
}

// AnnotationLOC returns the preparation-annotation lines (inline tweaks +
// reinitialization handlers), Table 1's "Ann LOC" column.
func (a *Annotations) AnnotationLOC() int {
	if a == nil {
		return 0
	}
	total := a.annotationLOC
	for _, l := range a.reinitLOC {
		total += l
	}
	return total
}

// StateTransferLOC returns the update-specific state-transfer handler
// lines (object handlers), Table 1's "ST LOC" column.
func (a *Annotations) StateTransferLOC() int {
	if a == nil {
		return 0
	}
	total := 0
	for _, l := range a.objHandlerLOC {
		total += l
	}
	return total
}

// Count returns the number of registered handlers.
func (a *Annotations) Count() int {
	if a == nil {
		return 0
	}
	return len(a.objHandlers) + len(a.reinitHandlers)
}

// Version describes one release of a server program.
type Version struct {
	Program string // program name, e.g. "httpd"
	Release string // release string, e.g. "2.2.23"
	Seq     int    // version ordinal; shifts the static layout base

	Types   *types.Registry
	Globals []GlobalSpec
	Libs    []LibSpec

	// Main is the program entry point, run on the root process's main
	// thread. It performs startup and then enters the long-running loop.
	Main func(t *Thread) error

	Annotations *Annotations

	// StateTransferLOC accounts the version's update-specific state
	// transfer code (Table 1 "ST LOC" analog).
	StateTransferLOC int
}

// Validate checks internal consistency of the version description.
func (v *Version) Validate() error {
	if v.Program == "" || v.Release == "" {
		return fmt.Errorf("program: version needs Program and Release")
	}
	if v.Main == nil {
		return fmt.Errorf("program: version %s-%s has no Main", v.Program, v.Release)
	}
	if v.Types == nil {
		return fmt.Errorf("program: version %s-%s has no type registry", v.Program, v.Release)
	}
	seen := make(map[string]bool)
	for _, g := range v.Globals {
		if seen[g.Name] {
			return fmt.Errorf("program: duplicate global %q", g.Name)
		}
		seen[g.Name] = true
		if g.Type != "" {
			if _, ok := v.Types.Lookup(g.Type); !ok {
				return fmt.Errorf("program: global %q has unknown type %q", g.Name, g.Type)
			}
		} else if g.Size == 0 {
			return fmt.Errorf("program: global %q has neither type nor size", g.Name)
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (v *Version) String() string { return v.Program + "-" + v.Release }
