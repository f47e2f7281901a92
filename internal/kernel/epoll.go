package kernel

import (
	"fmt"
	"sort"
)

// Epoll support. The interest set lives in the kernel object, not in
// program memory: when the new version inherits the epoll fd, it inherits
// every registered connection with it. This is what makes live update of
// event-driven servers (nginx) work without re-registering sessions — the
// epoll fd is an immutable state object like any other fd.

// EpollCreate creates an epoll instance and returns its fd.
func (p *Proc) EpollCreate() int {
	obj := &Object{kind: ObjEpoll, refs: 1, k: p.k, watch: make(map[int]*Object)}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.installLocked(obj)
}

// EpollAdd registers fd with the epoll instance epfd.
func (p *Proc) EpollAdd(epfd, fd int) error {
	ep, err := p.epoll(epfd)
	if err != nil {
		return err
	}
	target, err := p.FD(fd)
	if err != nil {
		return err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if _, dup := ep.watch[fd]; dup {
		return fmt.Errorf("kernel: epoll add: fd %d already watched", fd)
	}
	ep.watch[fd] = target
	return nil
}

// EpollDel removes fd from the epoll instance.
func (p *Proc) EpollDel(epfd, fd int) error {
	ep, err := p.epoll(epfd)
	if err != nil {
		return err
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if _, ok := ep.watch[fd]; !ok {
		return fmt.Errorf("kernel: epoll del: fd %d not watched", fd)
	}
	delete(ep.watch, fd)
	return nil
}

// EpollWait waits for any watched fd to become readable and returns its
// number, or fails with ErrTimeout once cancel closes; a ready fd always
// wins over a closed cancel. Closed connections report readable so the
// server can observe the close.
func (p *Proc) EpollWait(epfd int, cancel <-chan struct{}) (int, error) {
	ep, err := p.epoll(epfd)
	if err != nil {
		return 0, err
	}
	for blocked := false; ; blocked = true {
		ch := p.k.activityChan()
		ep.mu.Lock()
		ready := -1
		fds := make([]int, 0, len(ep.watch))
		for fd := range ep.watch {
			fds = append(fds, fd)
		}
		sort.Ints(fds)
		for _, fd := range fds {
			if objectReadable(ep.watch[fd]) {
				ready = fd
				break
			}
		}
		ep.mu.Unlock()
		if ready >= 0 {
			if blocked {
				yieldAfterWake()
			}
			return ready, nil
		}
		select {
		case <-ch:
		case <-cancel:
			return 0, ErrTimeout
		}
	}
}

func objectReadable(o *Object) bool {
	switch o.Kind() {
	case ObjListener:
		return len(o.acceptQ) > 0
	case ObjConn:
		return len(o.conn.toServer) > 0 || o.conn.Closed()
	}
	return false
}

func (p *Proc) epoll(epfd int) (*Object, error) {
	obj, err := p.FD(epfd)
	if err != nil {
		return nil, err
	}
	if obj.Kind() != ObjEpoll {
		return nil, fmt.Errorf("kernel: fd %d is not an epoll instance", epfd)
	}
	return obj, nil
}
