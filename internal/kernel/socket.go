package kernel

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// ObjectKind classifies a kernel object referenced by file descriptors.
type ObjectKind uint8

// Kernel object kinds.
const (
	ObjSocket   ObjectKind = iota // created, not yet bound
	ObjListener                   // bound+listening socket with accept queue
	ObjConn                       // accepted connection endpoint (server side)
	ObjFile                       // open file
	ObjEpoll                      // epoll instance (in-kernel interest set)
)

var objectKindNames = [...]string{"socket", "listener", "conn", "file", "epoll"}

func (k ObjectKind) String() string {
	if int(k) < len(objectKindNames) {
		return objectKindNames[k]
	}
	return fmt.Sprintf("kobj(%d)", uint8(k))
}

// Object is refcounted in-kernel state reachable through fds. This is
// exactly the "external (in-kernel) state" that makes fd numbers immutable
// state objects in MCR: the number in the program's memory is meaningless
// without the kernel object it denotes, so the object must be inherited,
// never recreated.
type Object struct {
	kind ObjectKind

	mu   sync.Mutex
	refs int

	// listener state
	k       *Kernel
	port    int
	path    string
	acceptQ chan *Conn

	// connection state
	conn *Conn

	// file state
	file   *File
	offset int

	// epoll state: watched fd number -> kernel object
	watch map[int]*Object
}

// Kind returns the object kind.
func (o *Object) Kind() ObjectKind {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.kind
}

// Port returns the bound port (listeners).
func (o *Object) Port() int { return o.port }

func (o *Object) ref() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.refs++
}

func (o *Object) unref() {
	o.mu.Lock()
	o.refs--
	dead := o.refs == 0
	kind := o.kind
	o.mu.Unlock()
	if !dead {
		return
	}
	switch kind {
	case ObjListener:
		o.k.unbind(o)
	case ObjConn:
		o.conn.Close()
	}
}

// Conn is a full-duplex simulated connection between a client and a
// server. Both buffers live in the kernel, so a connection survives the
// death of either program version as long as one version holds its fd —
// the property live update relies on to keep client sessions open.
type Conn struct {
	ID uint64

	toServer chan []byte
	toClient chan []byte
	closed   chan struct{}
	once     sync.Once
	k        *Kernel
}

// Close closes the connection in both directions.
func (c *Conn) Close() {
	c.once.Do(func() {
		close(c.closed)
		if c.k != nil {
			c.k.notify()
		}
	})
}

// Closed reports whether the connection has been closed.
func (c *Conn) Closed() bool {
	select {
	case <-c.closed:
		return true
	default:
		return false
	}
}

const connBufDepth = 256

func (k *Kernel) newConn() *Conn {
	k.mu.Lock()
	k.nextCID++
	id := k.nextCID
	k.mu.Unlock()
	return &Conn{
		ID:       id,
		toServer: make(chan []byte, connBufDepth),
		toClient: make(chan []byte, connBufDepth),
		closed:   make(chan struct{}),
		k:        k,
	}
}

// notify wakes all EpollWait and Poll waiters (edge-triggered
// broadcast). A waiter takes the channel before it checks readiness, so a
// notify with no waiter has nothing to close.
func (k *Kernel) notify() {
	k.mu.Lock()
	ch := k.activity
	k.activity = nil
	k.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

func (k *Kernel) activityChan() <-chan struct{} {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.activity == nil {
		k.activity = make(chan struct{})
	}
	return k.activity
}

// --- socket syscalls -------------------------------------------------------

// Socket creates an unbound socket and returns its fd.
func (p *Proc) Socket() int {
	obj := &Object{kind: ObjSocket, refs: 1, k: p.k}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.installLocked(obj)
}

// Bind binds the socket to a TCP-like port. Binding a port that is already
// bound fails with ErrAddrInUse — the re-execution error ("attempt to
// rebind to port 80") that mutable reinitialization exists to avoid.
func (p *Proc) Bind(fd, port int) error {
	obj, err := p.FD(fd)
	if err != nil {
		return err
	}
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	if _, taken := p.k.ports[port]; taken {
		return fmt.Errorf("%w: port %d", ErrAddrInUse, port)
	}
	obj.mu.Lock()
	obj.port = port
	obj.mu.Unlock()
	p.k.ports[port] = obj
	return nil
}

// BindUnix binds the socket to a Unix-domain path (used by mcr-ctl).
func (p *Proc) BindUnix(fd int, path string) error {
	obj, err := p.FD(fd)
	if err != nil {
		return err
	}
	p.k.mu.Lock()
	defer p.k.mu.Unlock()
	if _, taken := p.k.paths[path]; taken {
		return fmt.Errorf("%w: path %s", ErrAddrInUse, path)
	}
	obj.mu.Lock()
	obj.path = path
	obj.mu.Unlock()
	p.k.paths[path] = obj
	return nil
}

// Listen turns a bound socket into a listener with an accept queue.
func (p *Proc) Listen(fd, backlog int) error {
	obj, err := p.FD(fd)
	if err != nil {
		return err
	}
	if backlog <= 0 {
		backlog = 128
	}
	obj.mu.Lock()
	defer obj.mu.Unlock()
	if obj.kind != ObjSocket {
		return fmt.Errorf("kernel: listen on %v: %w", obj.kind, ErrNotListening)
	}
	obj.kind = ObjListener
	obj.acceptQ = make(chan *Conn, backlog)
	return nil
}

func (k *Kernel) unbind(o *Object) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if o.port != 0 && k.ports[o.port] == o {
		delete(k.ports, o.port)
	}
	if o.path != "" && k.paths[o.path] == o {
		delete(k.paths, o.path)
	}
}

// NoWait is a closed channel: passed as the cancel argument of a blocking
// primitive (Accept, Read, EpollWait, Poll), it makes the call poll once
// without blocking.
var NoWait <-chan struct{} = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// yieldAfterWake is called by a blocking primitive whose wait ended with
// its event. The Go scheduler runs a goroutine woken by a channel send
// next, on the rest of its waker's time slice, so a client and the server
// thread answering it would pass one processor back and forth for a whole
// slice (10 ms) while everything queued behind them — an update in
// progress, the warm daemon, another server — waits. Yielding once queues
// the woken thread like any other, as an OS scheduler would.
func yieldAfterWake() { runtime.Gosched() }

// Accept waits for a queued connection and installs its server endpoint
// as a new fd. It blocks until a connection is queued or cancel closes,
// then fails with ErrTimeout; a queued connection always wins over a
// closed cancel, so NoWait polls. A caller that wants a deadline passes a
// channel a timer closes.
func (p *Proc) Accept(fd int, cancel <-chan struct{}) (int, *Conn, error) {
	obj, err := p.FD(fd)
	if err != nil {
		return 0, nil, err
	}
	obj.mu.Lock()
	q := obj.acceptQ
	obj.mu.Unlock()
	if q == nil {
		return 0, nil, fmt.Errorf("kernel: accept on fd %d: %w", fd, ErrNotListening)
	}
	var c *Conn
	select {
	case c = <-q:
	default:
		select {
		case c = <-q:
			yieldAfterWake()
		case <-cancel:
			return 0, nil, ErrTimeout
		}
	}
	connObj := &Object{kind: ObjConn, refs: 1, conn: c, k: p.k}
	p.mu.Lock()
	n := p.installLocked(connObj)
	p.mu.Unlock()
	return n, c, nil
}

// Read receives the next message from the connection's client side. It
// blocks until a message arrives, the peer closes (ErrClosed once the
// buffer drains) or cancel closes (ErrTimeout); data and close always win
// over a closed cancel.
func (p *Proc) Read(fd int, cancel <-chan struct{}) ([]byte, error) {
	obj, err := p.FD(fd)
	if err != nil {
		return nil, err
	}
	if obj.Kind() != ObjConn {
		return nil, fmt.Errorf("kernel: read fd %d: %w", fd, ErrNotConn)
	}
	c := obj.conn
	select {
	case b := <-c.toServer:
		return b, nil
	case <-c.closed:
		return c.drain()
	default:
	}
	select {
	case b := <-c.toServer:
		yieldAfterWake()
		return b, nil
	case <-c.closed:
		return c.drain()
	case <-cancel:
		return nil, ErrTimeout
	}
}

// drain returns a message still buffered on a closed connection, else
// ErrClosed.
func (c *Conn) drain() ([]byte, error) {
	select {
	case b := <-c.toServer:
		return b, nil
	default:
		return nil, ErrClosed
	}
}

// Write sends a message to the connection's client side.
func (p *Proc) Write(fd int, data []byte) error {
	obj, err := p.FD(fd)
	if err != nil {
		return err
	}
	if obj.Kind() != ObjConn {
		return fmt.Errorf("kernel: write fd %d: %w", fd, ErrNotConn)
	}
	c := obj.conn
	if c.Closed() {
		return ErrClosed
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	// No notify: toClient is read by the client alone, never by a
	// server-side EpollWait or Poll.
	select {
	case c.toClient <- cp:
		return nil
	default:
		return fmt.Errorf("kernel: write fd %d: buffer full", fd)
	}
}

// Readable reports whether fd has data or a connection ready without
// blocking (poll readiness).
func (p *Proc) Readable(fd int) bool {
	obj, err := p.FD(fd)
	if err != nil {
		return false
	}
	switch obj.Kind() {
	case ObjListener:
		return len(obj.acceptQ) > 0
	case ObjConn:
		return len(obj.conn.toServer) > 0 || obj.conn.Closed()
	}
	return false
}

// Poll waits for any of the fds to become readable and returns the ready
// fd, or fails with ErrTimeout once cancel closes; a ready fd always wins
// over a closed cancel. This is the select-style event wait.
func (p *Proc) Poll(fds []int, cancel <-chan struct{}) (int, error) {
	for blocked := false; ; blocked = true {
		ch := p.k.activityChan()
		for _, fd := range fds {
			if p.Readable(fd) {
				if blocked {
					yieldAfterWake()
				}
				return fd, nil
			}
		}
		select {
		case <-ch:
		case <-cancel:
			return 0, ErrTimeout
		}
	}
}

// --- client side -----------------------------------------------------------

// ClientConn is the workload-facing endpoint of a simulated connection.
type ClientConn struct {
	c *Conn
}

// ID returns the kernel connection id.
func (cc *ClientConn) ID() uint64 { return cc.c.ID }

// Send delivers a message to the server side.
func (cc *ClientConn) Send(data []byte) error {
	if cc.c.Closed() {
		return ErrClosed
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	select {
	case cc.c.toServer <- cp:
		cc.c.k.notify()
		return nil
	default:
		return fmt.Errorf("kernel: client send: buffer full")
	}
}

// Recv waits up to timeout for a server message.
func (cc *ClientConn) Recv(timeout time.Duration) ([]byte, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case b := <-cc.c.toClient:
		return b, nil
	case <-cc.c.closed:
		select {
		case b := <-cc.c.toClient:
			return b, nil
		default:
			return nil, ErrClosed
		}
	case <-t.C:
		return nil, ErrTimeout
	}
}

// Close closes the connection.
func (cc *ClientConn) Close() { cc.c.Close() }

// Closed reports whether the connection is closed.
func (cc *ClientConn) Closed() bool { return cc.c.Closed() }

// Connect establishes a client connection to the listener bound at port.
func (k *Kernel) Connect(port int) (*ClientConn, error) {
	k.mu.Lock()
	l := k.ports[port]
	k.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("kernel: connect port %d: connection refused", port)
	}
	return k.connectTo(l)
}

// ConnectUnix establishes a client connection to a Unix-domain listener.
func (k *Kernel) ConnectUnix(path string) (*ClientConn, error) {
	k.mu.Lock()
	l := k.paths[path]
	k.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("kernel: connect %s: connection refused", path)
	}
	return k.connectTo(l)
}

func (k *Kernel) connectTo(l *Object) (*ClientConn, error) {
	l.mu.Lock()
	q := l.acceptQ
	l.mu.Unlock()
	if q == nil {
		return nil, ErrNotListening
	}
	c := k.newConn()
	select {
	case q <- c:
		k.notify()
		return &ClientConn{c: c}, nil
	default:
		return nil, fmt.Errorf("kernel: accept queue full")
	}
}

// ListenerBacklog returns the number of connections waiting in the accept
// queue of the listener bound at port (test/diagnostic hook).
func (k *Kernel) ListenerBacklog(port int) int {
	k.mu.Lock()
	l := k.ports[port]
	k.mu.Unlock()
	if l == nil || l.acceptQ == nil {
		return 0
	}
	return len(l.acceptQ)
}
