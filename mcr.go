// Package mcr is the public API of the Mutable Checkpoint-Restart (MCR)
// reproduction: a live-update system for generic (multiprocess and
// multithreaded) server programs, after Giuffrida, Iorgulescu and
// Tanenbaum, "Mutable Checkpoint-Restart: Automating Live Update for
// Generic Server Programs" (ACM Middleware 2014).
//
// MCR deploys a software update to a running server without dropping its
// state: open connections, session data and in-memory structures survive
// into the new version. An update is three phases, each automated:
//
//   - CHECKPOINT: quiesce the running version — every thread parks at a
//     profiled quiescent point (a blocking call at the top of its
//     long-running loop), reached promptly because arming the barrier
//     wakes every thread blocked in a wrapped blocking call at once.
//   - RESTART: start the new version from scratch under mutable
//     reinitialization — replaying the old version's startup log for
//     operations on immutable state objects (inherited file descriptors,
//     pids, pinned memory), executing changed startup code live.
//   - REMAP: transfer the remaining (dirty) state with mutable tracing —
//     a hybrid precise/conservative GC-style traversal that relocates and
//     type-transforms objects where type information is unambiguous and
//     pins conservatively-reached objects at their old addresses.
//
// Any conflict rolls the update back: the new version is discarded and
// the old one resumes from its checkpoint, invisibly to clients.
//
// Programs are written against a simulated substrate (virtual memory with
// soft-dirty page tracking, a ptmalloc-style allocator with in-band type
// tags, and an OS kernel with fd tables, pid namespaces and epoll),
// because a native Go process cannot expose the raw memory and kernel
// facilities the paper's C implementation manipulates. README.md maps each
// package to the paper mechanism it models.
//
// # Quick start
//
//	k := mcr.NewKernel()
//	engine, err := mcr.NewEngine(k, mcr.DefaultOptions())
//	if _, err := engine.Launch(v1); err != nil { ... }
//	// ... clients connect, state accumulates ...
//	report, err := engine.Update(v2) // live update, state carried over
//
// See examples/quickstart for a complete program (the paper's Listing 1
// and Figure 2), and internal/servers for full server models (Apache
// httpd, nginx, vsftpd, OpenSSH).
package mcr

import (
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/quiesce"
	"repro/internal/replaylog"
	"repro/internal/trace"
	"repro/internal/types"
)

// Engine manages the live-update lifecycle of one server program:
// Launch the first version, Update to later ones, with automatic rollback
// on conflicts.
type Engine = core.Engine

// Options is what an Engine is built with (instrumentation level, replay
// matching strategy, timeouts, the adoption fast path, the verifiers).
// The runtime modes — warm standby, the watchdog's phase budgets — are
// set on the Engine by the calls that arm them; a post-commit canary
// window is the caller's, run after Update returns (internal/canary).
type Options = core.Options

// UpdateReport is the outcome of one live update: the three update-time
// components (quiescence, control migration, state transfer), replay and
// transfer statistics, and the rollback flag.
type UpdateReport = core.UpdateReport

// Controller is the mcr-ctl backend: it serves update requests on a
// simulated Unix domain socket.
type Controller = core.Controller

// Kernel is the simulated operating system shared by program versions and
// client workloads.
type Kernel = kernel.Kernel

// ClientConn is a client-side connection endpoint (for workloads/tests).
type ClientConn = kernel.ClientConn

// Version describes one release of an MCR-enabled server program: types,
// globals, libraries, the main function, and annotations.
type Version = program.Version

// GlobalSpec declares a global variable of a version.
type GlobalSpec = program.GlobalSpec

// LibSpec declares a shared library dependency.
type LibSpec = program.LibSpec

// Thread is a simulated program thread; server code receives one and
// issues syscalls, memory operations and quiescent-point waits through it.
type Thread = program.Thread

// Proc is a simulated process: address space, heap, globals, startup log.
type Proc = program.Proc

// Instance is a running Version.
type Instance = program.Instance

// Annotations collects a version's MCR annotations: object-level state
// transfer handlers (MCR_ADD_OBJ_HANDLER) and reinitialization handlers
// (MCR_ADD_REINIT_HANDLER).
type Annotations = program.Annotations

// ObjHandler is a user traversal handler for one global object.
type ObjHandler = program.ObjHandler

// ReinitHandler restores quiescent states the new version's startup code
// cannot recreate (volatile quiescent points).
type ReinitHandler = program.ReinitHandler

// ReinitInfo is the context handed to reinitialization handlers.
type ReinitInfo = program.ReinitInfo

// TransferContext is the context handed to object handlers during state
// transfer (pointer remapping, default transfer).
type TransferContext = program.TransferContext

// Instr is the instrumentation level (baseline through full MCR), the
// configurations of the paper's Table 3.
type Instr = program.Instr

// Instrumentation levels.
const (
	InstrBaseline = program.InstrBaseline
	InstrUnblock  = program.InstrUnblock
	InstrStatic   = program.InstrStatic
	InstrDynamic  = program.InstrDynamic
	InstrQDet     = program.InstrQDet
)

// Object is a tracked memory object (a global, heap allocation, library
// datum or stack variable) with its relocation and data-type tags.
type Object = mem.Object

// Addr is a virtual address in the simulated address space.
type Addr = mem.Addr

// Type is a C-like data-type descriptor.
type Type = types.Type

// Field is a struct/union member.
type Field = types.Field

// Registry holds the named types of one program version.
type Registry = types.Registry

// Profiler is the quiescence profiler: run a version under a test
// workload and it reports thread classes, long-lived loops and quiescent
// points.
type Profiler = quiesce.Profiler

// Report is a quiescence-profiling report.
type Report = quiesce.Report

// ReplayStrategy selects the startup-log matching algorithm.
type ReplayStrategy = replaylog.Strategy

// Replay strategies.
const (
	// StrategyStackID matches by version-agnostic call-stack IDs (MCR's
	// approach, robust to reordering).
	StrategyStackID = replaylog.StrategyStackID
	// StrategyGlobalOrder is the strict global-ordering baseline.
	StrategyGlobalOrder = replaylog.StrategyGlobalOrder
)

// TransferStats summarizes one state transfer.
type TransferStats = trace.Stats

// PointerStats is the precise/likely pointer census of the conservative
// analysis (the paper's Table 2).
type PointerStats = trace.PointerStats

// NewKernel creates a simulated OS instance.
func NewKernel() *Kernel { return kernel.New() }

// NewEngine builds a live-update engine over the kernel.
func NewEngine(k *Kernel, opts Options) (*Engine, error) { return core.NewEngine(k, opts) }

// DefaultOptions returns the recommended engine configuration: the
// pipelined engine with the zero-copy page-adoption fast path armed.
func DefaultOptions() Options { return core.DefaultOptions() }

// AuditOptions returns DefaultOptions with the transfer checksum and the
// rollback bit-identity audit armed — the harness configuration.
func AuditOptions() Options { return core.AuditOptions() }

// NewController creates an mcr-ctl backend for the engine at the given
// (simulated) Unix socket path.
func NewController(e *Engine, path string) *Controller { return core.NewController(e, path) }

// CtlRequest sends one mcr-ctl request (e.g. "status", "update <rel>") to
// a controller and returns its response.
func CtlRequest(k *Kernel, path, req string) (string, error) { return core.CtlRequest(k, path, req) }

// NewProfiler creates a quiescence profiler to pass in Options.
func NewProfiler() *Profiler { return quiesce.NewProfiler() }

// NewAnnotations creates an empty annotation set for a Version.
func NewAnnotations() *Annotations { return program.NewAnnotations() }

// NewRegistry creates an empty type registry for a Version.
func NewRegistry() *Registry { return types.NewRegistry() }

// Scalar returns the canonical descriptor for a scalar kind.
func Scalar(k types.Kind) *Type { return types.Scalar(k) }

// Kind enumerates the C-like type kinds.
type Kind = types.Kind

// Type kinds, re-exported for version type definitions.
const (
	KindInt8    = types.KindInt8
	KindInt16   = types.KindInt16
	KindInt32   = types.KindInt32
	KindInt64   = types.KindInt64
	KindUint8   = types.KindUint8
	KindUint16  = types.KindUint16
	KindUint32  = types.KindUint32
	KindUint64  = types.KindUint64
	KindUintPtr = types.KindUintPtr
	KindPtr     = types.KindPtr
	KindFuncPtr = types.KindFuncPtr
	KindStruct  = types.KindStruct
	KindUnion   = types.KindUnion
	KindArray   = types.KindArray
	KindOpaque  = types.KindOpaque
)

// StructOf lays out a C struct from ordered fields.
func StructOf(name string, fields ...Field) *Type { return types.StructOf(name, fields...) }

// UnionOf lays out a C union.
func UnionOf(name string, fields ...Field) *Type { return types.UnionOf(name, fields...) }

// ArrayOf builds an array type.
func ArrayOf(n uint64, elem *Type) *Type { return types.ArrayOf(n, elem) }

// PointerTo builds a pointer type (nil elem for void*).
func PointerTo(elem *Type) *Type { return types.PointerTo(elem) }
