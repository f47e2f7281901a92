package kernel

import (
	"errors"
	"testing"
	"time"
)

// waitPrimitive is one blocking primitive under the cancel contract, with
// a way to make its event ready.
type waitPrimitive struct {
	name string
	// setup returns the blocking call and a function that makes its
	// event ready.
	setup func(t *testing.T, k *Kernel, p *Proc) (call func(cancel <-chan struct{}) error, ready func())
}

func listener(t *testing.T, p *Proc, port int) int {
	t.Helper()
	fd := p.Socket()
	if err := p.Bind(fd, port); err != nil {
		t.Fatal(err)
	}
	if err := p.Listen(fd, 16); err != nil {
		t.Fatal(err)
	}
	return fd
}

// accepted returns a server-side connection fd and its client end.
func accepted(t *testing.T, k *Kernel, p *Proc, port int) (int, *ClientConn) {
	t.Helper()
	lfd := listener(t, p, port)
	cc, err := k.Connect(port)
	if err != nil {
		t.Fatal(err)
	}
	cfd, _, err := p.Accept(lfd, NoWait)
	if err != nil {
		t.Fatal(err)
	}
	return cfd, cc
}

func send(t *testing.T, cc *ClientConn) {
	t.Helper()
	if err := cc.Send([]byte("ping")); err != nil {
		t.Error(err)
	}
}

var waitPrimitives = []waitPrimitive{
	{"accept", func(t *testing.T, k *Kernel, p *Proc) (func(<-chan struct{}) error, func()) {
		lfd := listener(t, p, 80)
		return func(cancel <-chan struct{}) error {
				_, _, err := p.Accept(lfd, cancel)
				return err
			}, func() {
				if _, err := k.Connect(80); err != nil {
					t.Error(err)
				}
			}
	}},
	{"read", func(t *testing.T, k *Kernel, p *Proc) (func(<-chan struct{}) error, func()) {
		cfd, cc := accepted(t, k, p, 80)
		return func(cancel <-chan struct{}) error {
			_, err := p.Read(cfd, cancel)
			return err
		}, func() { send(t, cc) }
	}},
	{"epoll_wait", func(t *testing.T, k *Kernel, p *Proc) (func(<-chan struct{}) error, func()) {
		cfd, cc := accepted(t, k, p, 80)
		epfd := p.EpollCreate()
		if err := p.EpollAdd(epfd, cfd); err != nil {
			t.Fatal(err)
		}
		return func(cancel <-chan struct{}) error {
			_, err := p.EpollWait(epfd, cancel)
			return err
		}, func() { send(t, cc) }
	}},
	{"poll", func(t *testing.T, k *Kernel, p *Proc) (func(<-chan struct{}) error, func()) {
		cfd, cc := accepted(t, k, p, 80)
		return func(cancel <-chan struct{}) error {
			_, err := p.Poll([]int{cfd}, cancel)
			return err
		}, func() { send(t, cc) }
	}},
}

// TestCancelContract pins the contract every blocking primitive keeps: a
// ready event always wins over a closed cancel, NoWait polls, a blocked
// call returns on its event, and closing cancel unblocks it with
// ErrTimeout.
func TestCancelContract(t *testing.T) {
	for _, w := range waitPrimitives {
		t.Run(w.name, func(t *testing.T) {
			t.Run("nowait-polls", func(t *testing.T) {
				k := New()
				call, _ := w.setup(t, k, k.NewProc())
				if err := call(NoWait); !errors.Is(err, ErrTimeout) {
					t.Fatalf("err = %v, want ErrTimeout", err)
				}
			})
			t.Run("event-beats-closed-cancel", func(t *testing.T) {
				k := New()
				call, ready := w.setup(t, k, k.NewProc())
				ready()
				for i := 0; i < 100; i++ { // select picks at random: repeat
					if err := call(NoWait); err != nil {
						t.Fatalf("attempt %d: err = %v, want the ready event", i, err)
					}
					ready()
				}
			})
			t.Run("event-unblocks", func(t *testing.T) {
				k := New()
				call, ready := w.setup(t, k, k.NewProc())
				res := make(chan error, 1)
				go func() { res <- call(nil) }() // a nil cancel never closes
				time.Sleep(5 * time.Millisecond)
				ready()
				select {
				case err := <-res:
					if err != nil {
						t.Fatalf("err = %v, want the event", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("the event did not unblock the call")
				}
			})
			t.Run("cancel-unblocks", func(t *testing.T) {
				k := New()
				call, _ := w.setup(t, k, k.NewProc())
				cancel := make(chan struct{})
				res := make(chan error, 1)
				go func() { res <- call(cancel) }()
				select {
				case err := <-res:
					t.Fatalf("returned %v with no event and cancel open", err)
				case <-time.After(20 * time.Millisecond):
				}
				close(cancel)
				select {
				case err := <-res:
					if !errors.Is(err, ErrTimeout) {
						t.Fatalf("err = %v, want ErrTimeout", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("closing cancel did not unblock the call")
				}
			})
		})
	}
}

// TestWriteDoesNotWakeServerWaiters: a server-side Write fills only the
// client's buffer, which no EpollWait or Poll reads, so it must not wake
// them; a client Send, a connect and a close must.
func TestWriteDoesNotWakeServerWaiters(t *testing.T) {
	k := New()
	p := k.NewProc()
	cfd, cc := accepted(t, k, p, 80)
	ch := k.activityChan()
	if err := p.Write(cfd, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("a server-side Write woke the server-side waiters")
	default:
	}
	for _, ev := range []struct {
		name string
		do   func()
	}{
		{"send", func() { send(t, cc) }},
		{"connect", func() {
			if _, err := k.Connect(80); err != nil {
				t.Fatal(err)
			}
		}},
		{"close", cc.Close},
	} {
		ch := k.activityChan()
		ev.do()
		select {
		case <-ch:
		default:
			t.Errorf("a client %s did not wake the server-side waiters", ev.name)
		}
	}
}
