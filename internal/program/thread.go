package program

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/quiesce"
	"repro/internal/replaylog"
)

// Call is one syscall as seen by the interception layer: name, arguments,
// the calling thread's version-agnostic call-stack ID, and — after
// execution or replay — the result plus the immutable-object identities
// (fds, pid) the operation involved.
type Call struct {
	Name    string
	Args    []any
	Stack   []string
	StackID uint64
	Result  any
	FDs     []int
	Pid     int
	// Replayed is set when an interceptor substituted the result.
	Replayed bool
}

// Thread is a simulated program thread: a goroutine carrying an explicit
// C-like call stack (for call-stack IDs), issuing syscalls through its
// process, and parking at quiescent points when the barrier is armed.
type Thread struct {
	proc  *Proc
	id    int64 // barrier/profiler identity, instance-unique
	tid   kernel.Pid
	class string
	stack []string
	// ids[i] is the StackID of stack[:i+1]: StackID costs a slice read,
	// not a hash over every frame's name, on each allocation.
	ids []uint64

	loopDepth int
	stackVars []*mem.Object
	metaNode  *mem.Object // +DInstr per-thread overlay metadata

	// noRecord suppresses startup-log recording: reinitialization handler
	// threads reconstruct state rather than start it up, so their
	// syscalls must not pollute the new version's own startup log.
	noRecord bool

	// note is a server-defined tag (typically the connection fd a handler
	// thread serves), surfaced through ThreadInfo so reinitialization
	// handlers can respawn volatile threads with the right connection.
	note any
}

// SetNote attaches a server-defined tag to the thread.
func (th *Thread) SetNote(v any) { th.note = v }

// Note returns the server-defined tag.
func (th *Thread) Note() any { return th.note }

// UnderMCR reports whether this instance is starting under mutable
// reinitialization (a live update in progress). The paper's httpd
// annotation uses this to skip the running-instance check.
func (th *Thread) UnderMCR() bool { return th.proc.inst.opts.Interceptor != nil }

func (inst *Instance) newThread(p *Proc, class string, seedStack []string) (*Thread, error) {
	th := &Thread{
		proc:  p,
		id:    inst.threadSeq.Add(1),
		class: class,
	}
	for _, fn := range seedStack {
		th.Enter(fn)
	}
	tid, err := p.kproc.NewThreadID()
	if err != nil {
		// A pinned thread id clash is a reinitialization conflict, never
		// something to paper over: misassigned ids would silently break
		// every later pin.
		return nil, fmt.Errorf("%w: thread id: %v", ErrConflict, err)
	}
	th.tid = tid
	return th, nil
}

// startThread registers the thread everywhere and launches its body. The
// barrier registration happens before the goroutine starts so that arming
// can never race with a thread the barrier does not know about.
func (inst *Instance) startThread(th *Thread, fn func(*Thread) error) {
	inst.mu.Lock()
	inst.threads[th.id] = th
	th.proc.threads++
	inst.mu.Unlock()
	inst.barrier.Register(th.id, th.class)
	if inst.opts.Profiler != nil {
		inst.opts.Profiler.ThreadStarted(th.class, inst.InStartupPhase())
	}
	if inst.opts.Instr >= InstrDynamic {
		// Dynamic instrumentation maintains per-thread overlay metadata.
		if o, err := th.proc.heap.Alloc(64, nil, 0); err == nil {
			o.Scratch = true // framework-owned; regenerated, never transferred
			th.metaNode = o
		}
	}
	inst.wg.Add(1)
	go func() {
		defer inst.wg.Done()
		defer th.cleanup()
		if err := fn(th); err != nil && !errors.Is(err, ErrStopped) {
			inst.recordError(fmt.Errorf("thread %s/%s: %w", th.proc.key, th.class, err))
		}
	}()
}

// cleanup unregisters an exiting thread. A forked process whose last
// thread exits exits with it (a closed session's handler process); the
// root lives until Terminate.
func (th *Thread) cleanup() {
	inst := th.proc.inst
	inst.mu.Lock()
	delete(inst.threads, th.id)
	th.proc.threads--
	last := th.proc.threads == 0 && th.proc != inst.root
	inst.mu.Unlock()
	inst.barrier.Deregister(th.id)
	if inst.opts.Profiler != nil {
		inst.opts.Profiler.ThreadEnded(th.class)
	}
	for _, o := range th.stackVars {
		th.proc.index.Remove(o.Addr)
	}
	th.stackVars = nil
	if th.metaNode != nil {
		_ = th.proc.heap.Free(th.metaNode.Addr)
		th.metaNode = nil
	}
	if last {
		th.proc.kproc.Exit()
	}
}

// Proc returns the thread's process.
func (th *Thread) Proc() *Proc { return th.proc }

// Class returns the thread class name.
func (th *Thread) Class() string { return th.class }

// TID returns the simulated thread id.
func (th *Thread) TID() kernel.Pid { return th.tid }

// --- call stacks ------------------------------------------------------------

// Enter pushes a function name onto the thread's call stack. Server code
// brackets its functions with Enter/Exit so syscalls carry faithful
// call-stack IDs.
func (th *Thread) Enter(fn string) {
	th.ids = append(th.ids, replaylog.PushStackID(th.StackID(), fn))
	th.stack = append(th.stack, fn)
}

// Exit pops the top stack frame.
func (th *Thread) Exit() {
	if len(th.stack) == 0 {
		panic("program: Exit on empty call stack")
	}
	th.stack = th.stack[:len(th.stack)-1]
	th.ids = th.ids[:len(th.ids)-1]
}

// Call runs f inside an Enter/Exit bracket.
func (th *Thread) Call(fn string, f func() error) error {
	th.Enter(fn)
	defer th.Exit()
	return f()
}

// Stack returns a copy of the current call stack.
func (th *Thread) Stack() []string {
	out := make([]string, len(th.stack))
	copy(out, th.stack)
	return out
}

// StackID returns the current version-agnostic call-stack ID:
// replaylog.StackID of Stack.
func (th *Thread) StackID() uint64 {
	if n := len(th.ids); n > 0 {
		return th.ids[n-1]
	}
	return replaylog.EmptyStackID
}

// --- syscall interception -----------------------------------------------

// sys runs one syscall through the interception layer: replay hook first
// (startup only), then live execution, then startup-log recording.
func (th *Thread) sys(name string, exec func(c *Call) error, args ...any) (*Call, error) {
	c := &Call{
		Name:    name,
		Args:    args,
		Stack:   th.Stack(),
		StackID: th.StackID(),
	}
	inStartup := th.proc.inStartup.Load() && !th.noRecord
	if inStartup && th.proc.inst.opts.Interceptor != nil {
		skip, err := th.proc.inst.opts.Interceptor.Before(th, c)
		if err != nil {
			err = fmt.Errorf("%w: %s at %v: %v", ErrConflict, name, c.Stack, err)
			th.proc.inst.recordError(err)
			return nil, err
		}
		if skip {
			c.Replayed = true
		}
	}
	var err error
	if !c.Replayed {
		err = exec(c)
	}
	if err == nil && inStartup && th.proc.log != nil {
		th.proc.log.Append(replaylog.Record{
			StackID: c.StackID,
			Stack:   c.Stack,
			Call:    c.Name,
			Args:    c.Args,
			Result:  c.Result,
			FDs:     c.FDs,
			Pid:     c.Pid,
		})
	}
	return c, err
}

// Socket creates a socket.
func (th *Thread) Socket() (int, error) {
	c, err := th.sys("socket", func(c *Call) error {
		fd := th.proc.kproc.Socket()
		c.Result = fd
		c.FDs = []int{fd}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return c.Result.(int), nil
}

// Bind binds fd to a port.
func (th *Thread) Bind(fd, port int) error {
	_, err := th.sys("bind", func(c *Call) error {
		c.FDs = []int{fd}
		return th.proc.kproc.Bind(fd, port)
	}, fd, port)
	return err
}

// BindUnix binds fd to a Unix-domain path.
func (th *Thread) BindUnix(fd int, path string) error {
	_, err := th.sys("bind_unix", func(c *Call) error {
		c.FDs = []int{fd}
		return th.proc.kproc.BindUnix(fd, path)
	}, fd, path)
	return err
}

// Listen starts listening on fd.
func (th *Thread) Listen(fd, backlog int) error {
	_, err := th.sys("listen", func(c *Call) error {
		c.FDs = []int{fd}
		return th.proc.kproc.Listen(fd, backlog)
	}, fd, backlog)
	return err
}

// Open opens a file.
func (th *Thread) Open(path string) (int, error) {
	c, err := th.sys("open", func(c *Call) error {
		fd, err := th.proc.kproc.Open(path)
		if err != nil {
			return err
		}
		c.Result = fd
		c.FDs = []int{fd}
		return nil
	}, path)
	if err != nil {
		return 0, err
	}
	return c.Result.(int), nil
}

// CloseFD closes a file descriptor.
func (th *Thread) CloseFD(fd int) error {
	_, err := th.sys("close", func(c *Call) error {
		c.FDs = []int{fd}
		return th.proc.kproc.Close(fd)
	}, fd)
	return err
}

// Dup2 duplicates oldfd onto newfd.
func (th *Thread) Dup2(oldfd, newfd int) error {
	_, err := th.sys("dup2", func(c *Call) error {
		c.FDs = []int{oldfd, newfd}
		return th.proc.kproc.Dup2(oldfd, newfd)
	}, oldfd, newfd)
	return err
}

// GetPid returns the process id (recorded but never replayed: pids are
// restored via pinning, and the live value must always be returned).
func (th *Thread) GetPid() int { return int(th.proc.kproc.Pid()) }

// ReadFile reads from an open file fd (not a startup-log operation: file
// contents are re-read live by every version).
func (th *Thread) ReadFile(fd, n int) ([]byte, error) {
	return th.proc.kproc.ReadFile(fd, n)
}

// Daemonize models the classic double-fork daemonification that produces
// the short-lived thread classes of Table 1. In the simulation the
// "parent" simply ends its role; the call is recorded so replay matching
// covers it.
func (th *Thread) Daemonize() error {
	_, err := th.sys("daemonize", func(c *Call) error {
		c.Pid = int(th.proc.kproc.Pid())
		return nil
	})
	return err
}

// SpawnThread starts a new thread of the given class in this process,
// running fn. The child's call stack is seeded from the parent's (as a
// forked C thread would see). Returns the child's thread id.
func (th *Thread) SpawnThread(class string, fn func(*Thread) error) (kernel.Pid, error) {
	c, err := th.sys("thread_create", func(c *Call) error {
		child, err := th.proc.inst.newThread(th.proc, class, th.stack)
		if err != nil {
			return err
		}
		c.Result = int(child.tid)
		c.Pid = int(child.tid)
		th.proc.inst.startThread(child, fn)
		return nil
	}, class)
	if err != nil {
		return 0, err
	}
	return kernel.Pid(c.Result.(int)), nil
}

// ForkProc forks the process: the child (key derived from this call site)
// runs childMain on a fresh main thread whose stack is seeded from the
// parent's. Returns the child Proc in the parent.
func (th *Thread) ForkProc(class string, childMain func(*Thread) error) (*Proc, error) {
	site := th.StackID()
	key := ProcKey{Site: site, Seq: th.proc.nextForkSeq(site)}
	return th.forkProc(key, class, 0, childMain)
}

// ForkProcWithKey forks with an explicit process key and (when mainTID is
// nonzero) a pinned thread id for the child's main thread.
// Reinitialization handlers use it to recreate handler processes under
// the same key and ids their old-version counterparts had, so state
// transfer can pair them and no restored id is stolen by an unpinned
// allocation.
func (th *Thread) ForkProcWithKey(key ProcKey, class string, mainTID int, childMain func(*Thread) error) (*Proc, error) {
	th.proc.noteForkSeq(key.Site, key.Seq)
	return th.forkProc(key, class, mainTID, childMain)
}

func (th *Thread) forkProc(key ProcKey, class string, mainTID int, childMain func(*Thread) error) (*Proc, error) {
	var child *Proc
	_, err := th.sys("fork", func(c *Call) error {
		var err error
		child, err = th.proc.fork(key)
		if err != nil {
			return err
		}
		if mainTID != 0 {
			child.kproc.PinNextPid(kernel.Pid(mainTID))
		}
		if th.noRecord {
			// Handler-reconstructed session processes record like
			// post-startup children: no startup log of their own. Their
			// memory still completes startup with the instance's.
			child.log = nil
			child.inStartup.Store(false)
		}
		child.mainClass = class
		c.Result = int(child.kproc.Pid())
		c.Pid = int(child.kproc.Pid())
		mainTh, err := th.proc.inst.newThread(child, class, th.stack)
		if err != nil {
			return err
		}
		th.proc.inst.startThread(mainTh, childMain)
		return nil
	}, class)
	if err != nil {
		return nil, err
	}
	return child, nil
}

// Exec models exec()ing a short-lived helper program (the OpenSSH case):
// a short-lived thread class that runs fn and exits.
func (th *Thread) Exec(helper string, fn func(*Thread) error) error {
	_, err := th.sys("exec", func(c *Call) error {
		child, err := th.proc.inst.newThread(th.proc, helper, nil)
		if err != nil {
			return err
		}
		c.Result = int(child.tid)
		c.Pid = int(child.tid)
		th.proc.inst.startThread(child, fn)
		return nil
	}, helper)
	return err
}

// --- quiescent points -----------------------------------------------------

// cancelChan returns the channel that ends this thread's wait at a
// quiescent point: the barrier's armed channel wherever the barrier is
// honoured, else the instance's stop channel. Below InstrQDet there is no
// run-time quiescence detection, but the barrier is still honoured during
// the startup phase, where the pre-armed controller defines the startup
// boundary for every configuration; after it, an armed barrier the thread
// will not honour must not wake it.
func (th *Thread) cancelChan() <-chan struct{} {
	inst := th.proc.inst
	if inst.opts.Instr >= InstrQDet || inst.InStartupPhase() {
		return inst.barrier.ArmedChan()
	}
	return inst.stop
}

// pollAtQP is the unblockification core: a blocking call at the quiescent
// point site that waits on its event or the barrier and nothing else.
// Each pass parks the thread if cancel is already closed, else blocks in
// poll until its event or until cancel closes; poll then returns
// kernel.ErrTimeout and the next pass parks. The wait is edge-triggered:
// arming the barrier wakes every blocked thread at once, a thread with no
// event never wakes, and no timer runs. With idle, pollAtQP returns after
// a park instead of waiting again (IdleQP's contract).
func (th *Thread) pollAtQP(site string, idle bool, poll func(cancel <-chan struct{}) error) error {
	inst := th.proc.inst
	prof := inst.opts.Profiler
	for parked := false; ; {
		if inst.stopping.Load() {
			return ErrStopped
		}
		if parked && idle {
			return nil
		}
		cancel := th.cancelChan()
		select {
		case <-cancel:
			if inst.barrier.Park(th.id, site) == quiesce.Abort {
				return ErrStopped
			}
			parked = true
			continue
		default:
		}
		if prof != nil {
			prof.BlockBegin(th.id, th.class, site)
		}
		err := poll(cancel)
		if prof != nil {
			prof.BlockEnd(th.id)
		}
		if !errors.Is(err, kernel.ErrTimeout) {
			return err
		}
	}
}

// AcceptQP is an unblockified accept at the quiescent point site.
func (th *Thread) AcceptQP(site string, fd int) (int, *kernel.Conn, error) {
	var cfd int
	var conn *kernel.Conn
	err := th.pollAtQP(site, false, func(cancel <-chan struct{}) error {
		var err error
		cfd, conn, err = th.proc.kproc.Accept(fd, cancel)
		return err
	})
	return cfd, conn, err
}

// ReadQP is an unblockified connection read at the quiescent point site.
func (th *Thread) ReadQP(site string, fd int) ([]byte, error) {
	var data []byte
	err := th.pollAtQP(site, false, func(cancel <-chan struct{}) error {
		var err error
		data, err = th.proc.kproc.Read(fd, cancel)
		return err
	})
	return data, err
}

// EpollCreate creates an epoll instance (recorded: the interest set is
// in-kernel state inherited across updates).
func (th *Thread) EpollCreate() (int, error) {
	c, err := th.sys("epoll_create", func(c *Call) error {
		fd := th.proc.kproc.EpollCreate()
		c.Result = fd
		c.FDs = []int{fd}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return c.Result.(int), nil
}

// EpollAdd registers fd with an epoll instance.
func (th *Thread) EpollAdd(epfd, fd int) error {
	_, err := th.sys("epoll_add", func(c *Call) error {
		c.FDs = []int{epfd, fd}
		return th.proc.kproc.EpollAdd(epfd, fd)
	}, epfd, fd)
	return err
}

// EpollDel removes fd from an epoll instance.
func (th *Thread) EpollDel(epfd, fd int) error {
	_, err := th.sys("epoll_del", func(c *Call) error {
		c.FDs = []int{epfd, fd}
		return th.proc.kproc.EpollDel(epfd, fd)
	}, epfd, fd)
	return err
}

// EpollWaitQP is an unblockified epoll wait at the quiescent point site —
// the single quiescent point of a purely event-driven server. Because the
// interest set lives in the inherited epoll object, the new version
// resumes waiting on every pre-update session without re-registration.
func (th *Thread) EpollWaitQP(site string, epfd int) (int, error) {
	var ready int
	err := th.pollAtQP(site, false, func(cancel <-chan struct{}) error {
		var err error
		ready, err = th.proc.kproc.EpollWait(epfd, cancel)
		return err
	})
	return ready, err
}

// PollQP is an unblockified event wait (select-style, caller-supplied fd
// list) at the quiescent point site. Prefer EpollWaitQP for long-lived
// session sets: a select-style list is re-evaluated by the caller's loop,
// not by the wrapper.
func (th *Thread) PollQP(site string, fds []int) (int, error) {
	var ready int
	err := th.pollAtQP(site, false, func(cancel <-chan struct{}) error {
		var err error
		ready, err = th.proc.kproc.Poll(fds, cancel)
		return err
	})
	return ready, err
}

// WaitQP is an unblockified indefinite wait (e.g. sigwait in a master
// process that only supervises children). It returns only on stop/abort.
func (th *Thread) WaitQP(site string) error {
	return th.pollAtQP(site, false, func(cancel <-chan struct{}) error {
		<-cancel
		return kernel.ErrTimeout
	})
}

// IdleQP waits at a quiescent point for the next park/resume or
// Proc.Notify and returns, letting the caller re-check its own state. A
// thread that must not act before the barrier releases it (a
// reinitialization handler's reconstructed thread, started under the
// pre-armed barrier) calls it first: it parks at once and returns on
// resume.
func (th *Thread) IdleQP(site string) error {
	return th.pollAtQP(site, true, func(cancel <-chan struct{}) error {
		select {
		case <-th.proc.notifyChan():
			return nil
		case <-cancel:
			return kernel.ErrTimeout
		}
	})
}

// CondQP is an unblockified condition wait (pthread_cond_wait analog, the
// worker-pool quiescent point of threaded servers): it blocks at site
// until pred reports true, re-evaluating it on every Proc.Notify.
func (th *Thread) CondQP(site string, pred func() (bool, error)) error {
	return th.pollAtQP(site, false, func(cancel <-chan struct{}) error {
		ch := th.proc.notifyChan()
		ok, err := pred()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-cancel:
		}
		return kernel.ErrTimeout
	})
}

// Write sends data on a connection fd (no quiescent point: writes are
// short operations).
func (th *Thread) Write(fd int, data []byte) error {
	return th.proc.kproc.Write(fd, data)
}

// --- loops ------------------------------------------------------------------

// Loop runs body until it returns an error; ErrLoopExit terminates the
// loop cleanly. Iterations feed the quiescence profiler's loop profiling.
func (th *Thread) Loop(name string, body func() error) error {
	inst := th.proc.inst
	th.loopDepth++
	depth := th.loopDepth
	defer func() { th.loopDepth-- }()
	for {
		if inst.opts.Profiler != nil {
			inst.opts.Profiler.RecordLoopIter(th.class, name, depth)
		}
		if err := body(); err != nil {
			if errors.Is(err, ErrLoopExit) {
				if inst.opts.Profiler != nil {
					inst.opts.Profiler.RecordLoopExit(th.class, name)
				}
				return nil
			}
			return err
		}
	}
}

// ErrLoopExit terminates a Loop without error.
var ErrLoopExit = errors.New("program: loop exit")

// --- stack variables --------------------------------------------------------

// StackVar declares a typed stack-resident variable for this thread,
// registered as a tracing root (the overlay stack metadata of §6, limited
// to functions active at quiescent points). It is released at thread exit.
func (th *Thread) StackVar(name, typeName string) (*mem.Object, error) {
	t, ok := th.proc.inst.version.Types.Lookup(typeName)
	if !ok {
		return nil, fmt.Errorf("program: StackVar %q: unknown type %q", name, typeName)
	}
	o, err := th.proc.stackSeg.Place(th.class+":"+name, t)
	if err != nil {
		return nil, err
	}
	th.stackVars = append(th.stackVars, o)
	return o, nil
}
