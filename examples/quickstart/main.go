// The quickstart example is the paper's Listing 1 and Figure 2 end to
// end: a small event-driven server with a linked list (precisely traced),
// a char buffer hiding a pointer (conservatively traced), and a startup-
// initialized configuration — live-updated to a version whose list node
// type gained a field.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	mcr "repro"
	"repro/internal/kernel"
	"repro/internal/program"
)

// hiddenState is what each event writes into the buffer b's hidden
// pointer targets.
const hiddenState = "hidden state"

// version builds the Listing 1 server. withNew adds the `new` field to
// l_t — the Figure 2 update.
func version(seq int, withNew bool) *mcr.Version {
	reg := mcr.NewRegistry()
	lt := &mcr.Type{Name: "l_t", Kind: mcr.KindStruct}
	lt.Fields = []mcr.Field{
		{Name: "value", Offset: 0, Type: mcr.Scalar(mcr.KindInt32)},
		{Name: "next", Offset: 8, Type: mcr.PointerTo(lt)},
	}
	lt.Size, lt.Align = 16, 8
	if withNew {
		lt.Fields = append(lt.Fields, mcr.Field{Name: "new", Offset: 16,
			Type: mcr.Scalar(mcr.KindInt32)})
		lt.Size = 24
	}
	reg.Define(lt)
	reg.Define(mcr.StructOf("conf_s",
		mcr.Field{Name: "port", Type: mcr.Scalar(mcr.KindInt64)},
	))
	buf8 := mcr.ArrayOf(8, mcr.Scalar(mcr.KindUint8))
	buf8.Name = "buf8"
	reg.Define(buf8)
	reg.Define(&mcr.Type{Name: "voidptr", Kind: mcr.KindPtr, Size: 8, Align: 8})

	release := "v1"
	if withNew {
		release = "v2"
	}
	return &mcr.Version{
		Program: "listing1",
		Release: release,
		Seq:     seq,
		Types:   reg,
		Globals: []mcr.GlobalSpec{
			{Name: "b", Type: "buf8"},
			{Name: "list", Type: "l_t"},
			{Name: "conf", Type: "voidptr"},
		},
		Annotations: mcr.NewAnnotations(),
		Main:        serverMain,
	}
}

// serverMain is Listing 1: server_init then the main event loop.
func serverMain(t *mcr.Thread) error {
	t.Enter("main")
	defer t.Exit()
	var lfd int
	err := t.Call("server_init", func() error {
		var err error
		if lfd, err = t.Socket(); err != nil {
			return err
		}
		if err := t.Bind(lfd, 80); err != nil {
			return err
		}
		if err := t.Listen(lfd, 64); err != nil {
			return err
		}
		conf, err := t.Malloc("conf_s")
		if err != nil {
			return err
		}
		p := t.Proc()
		if err := p.WriteField(conf, "port", 80); err != nil {
			return err
		}
		return p.SetPtr(p.MustGlobal("conf"), "", conf)
	})
	if err != nil {
		return err
	}
	return t.Loop("main_loop", func() error {
		// server_get_event: the quiescent point.
		cfd, _, err := t.AcceptQP("accept@server_get_event", lfd)
		if err != nil {
			if errors.Is(err, program.ErrStopped) {
				return program.ErrLoopExit
			}
			return err
		}
		// server_handle_event: push a list node, stash a hidden pointer
		// in b, greet the client.
		return t.Call("server_handle_event", func() error {
			p := t.Proc()
			node, err := t.Malloc("l_t")
			if err != nil {
				return err
			}
			head := p.MustGlobal("list")
			old, _ := p.ReadField(head, "next")
			if err := p.WriteField(node, "value", old&0xff+10); err != nil {
				return err
			}
			if err := p.WriteField(node, "next", old); err != nil {
				return err
			}
			if err := p.WriteField(head, "next", uint64(node.Addr)); err != nil {
				return err
			}
			scratch, err := t.MallocBytes(32)
			if err != nil {
				return err
			}
			if err := p.WriteBytes(scratch, 0, []byte(hiddenState)); err != nil {
				return err
			}
			if err := p.WriteWordAt(p.MustGlobal("b"), 0, uint64(scratch.Addr)); err != nil {
				return err
			}
			if err := t.Write(cfd, []byte("welcome")); err != nil && !errors.Is(err, kernel.ErrClosed) {
				return err
			}
			return nil
		})
	})
}

// node is one list node as Figure 2 draws it.
type node struct {
	addr       mcr.Addr
	value, new uint64
}

// figure2State reads the state Figure 2 is about: the list nodes, in list
// order, and the pointer b hides. hasNew reads v2's `new` field.
func figure2State(p *mcr.Proc, hasNew bool) ([]node, mcr.Addr) {
	var nodes []node
	obj, ok := p.ReadPtr(p.MustGlobal("list"), "next")
	for ok {
		n := node{addr: obj.Addr}
		n.value, _ = p.ReadField(obj, "value")
		if hasNew {
			n.new, _ = p.ReadField(obj, "new")
		}
		nodes = append(nodes, n)
		obj, ok = p.ReadPtr(obj, "next")
	}
	hidden, _ := p.ReadWordAt(p.MustGlobal("b"), 0)
	return nodes, mcr.Addr(hidden)
}

func printState(w io.Writer, label string, nodes []node, hidden mcr.Addr, hasNew bool) {
	fmt.Fprintf(w, "%s list:", label)
	for _, n := range nodes {
		if hasNew {
			fmt.Fprintf(w, " {value=%d new=%d @%#x}", n.value, n.new, n.addr)
		} else {
			fmt.Fprintf(w, " {value=%d @%#x}", n.value, n.addr)
		}
	}
	fmt.Fprintf(w, "\n%s b hides pointer %#x\n", label, hidden)
}

// run launches v1, serves three clients, live-updates to v2 and checks
// Figure 2's outcome: every list node relocated and type-transformed
// with new=0, the object behind b's hidden pointer pinned at its old
// address with its contents, and the listener still serving.
func run(w io.Writer) error {
	k := mcr.NewKernel()
	engine, err := mcr.NewEngine(k, mcr.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "== launching listing1 v1 ==")
	if _, err := engine.Launch(version(0, false)); err != nil {
		return err
	}
	defer engine.Shutdown()

	// Three client events build up post-startup ("dirty") state.
	for i := 0; i < 3; i++ {
		cc, err := k.Connect(80)
		if err != nil {
			return err
		}
		if _, err := cc.Recv(2 * time.Second); err != nil {
			return err
		}
	}
	v1, hidden1 := figure2State(engine.Current().Root(), false)
	printState(w, "v1", v1, hidden1, false)

	fmt.Fprintln(w, "\n== live update to v2 (l_t gains a `new` field) ==")
	rep, err := engine.Update(version(1, true))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "update done in %v (quiesce %v, control migration %v, state transfer %v)\n",
		rep.TotalTime.Round(time.Microsecond), rep.QuiesceTime.Round(time.Microsecond),
		rep.ControlMigrationTime.Round(time.Microsecond), rep.TransferWork().Round(time.Microsecond))
	fmt.Fprintf(w, "replayed %d startup operations, %d executed live; transferred %d objects (%d type-transformed)\n",
		rep.Replayed, rep.LiveExecuted, rep.Transfer.ObjectsTransferred, rep.Transfer.TypeTransformed)

	root := engine.Current().Root()
	v2, hidden2 := figure2State(root, true)
	printState(w, "v2", v2, hidden2, true)
	if len(v2) != len(v1) {
		return fmt.Errorf("figure 2: v2 list has %d nodes, v1 had %d", len(v2), len(v1))
	}
	for i := range v1 {
		if v2[i].value != v1[i].value || v2[i].new != 0 || v2[i].addr == v1[i].addr {
			return fmt.Errorf("figure 2: node %d went %+v -> %+v, want it relocated with its value and new=0", i, v1[i], v2[i])
		}
	}
	hidden := make([]byte, len(hiddenState))
	if err := root.Space().ReadAt(hidden2, hidden); err != nil || hidden2 != hidden1 || string(hidden) != hiddenState {
		return fmt.Errorf("figure 2: b hides %#x -> %#x holding %q (%v), want its target pinned with %q",
			hidden1, hidden2, hidden, err, hiddenState)
	}

	// The same listener still accepts — a fourth client talks to v2.
	cc, err := k.Connect(80)
	if err != nil {
		return err
	}
	if msg, err := cc.Recv(2 * time.Second); err != nil || string(msg) != "welcome" {
		return fmt.Errorf("post-update client: %q %v", msg, err)
	}
	fmt.Fprintln(w, "\npost-update client served; list nodes were relocated and")
	fmt.Fprintln(w, "type-transformed (new=0), while b's hidden pointer target was")
	fmt.Fprintln(w, "pinned at its old address — exactly Figure 2.")
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
