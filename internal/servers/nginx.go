package servers

import (
	"errors"
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/types"
)

// The nginx model: a purely event-driven server — the paper's example of
// an update-friendly design with "a single possible quiescent state
// allowed throughout the execution" (§7). One master process supervising
// one worker; the worker serves every connection from a single epoll
// loop. Connections come from an (uninstrumented) slab allocator; request
// buffers from a region allocator; the connection list head is stored
// with metadata in its two least significant bits — the pointer-encoding
// idiom that needs nginx's 22-LOC annotation.
//
// Thread classes: nginx-daemonizer (short-lived), nginx-master
// (persistent QP sigwait@ngx_master), nginx-worker (persistent QP
// epoll_wait@ngx_process_events). SL=1, LL=2, QP=2, Per=2, Vol=0 as in
// Table 1.

// Connection slab slot layout (untyped: opaque to precise tracing).
const (
	ngxConnSize     = 64
	ngxConnOffFD    = 0
	ngxConnOffCount = 8
	ngxConnOffNext  = 16 // encoded: addr | tag bits
	ngxConnOffState = 24
	ngxPtrTagMask   = 0x3
)

// nginxTypes builds the version-i type registry. Every few releases one
// of the rotating config/stats structs gains a field, producing the
// steady stream of small type changes of nginx's tight release cycle.
func nginxTypes(i int) *types.Registry {
	reg := types.NewRegistry()
	confFields := []types.Field{
		{Name: "worker_processes", Type: types.Scalar(types.KindInt64)},
		{Name: "keepalive_timeout", Type: types.Scalar(types.KindInt64)},
		{Name: "conn_slab", Type: types.PointerTo(nil)},
		// The mime-type table parsed at startup: page-spanning clean
		// state the dirty filter exempts from transfer.
		{Name: "mime_table", Type: types.PointerTo(nil)},
	}
	// Updates 1,4,7,... extend the conf struct.
	for g := 1; g*3-2 <= i; g++ {
		confFields = append(confFields, types.Field{
			Name: fmt.Sprintf("conf_ext%d", g), Type: types.Scalar(types.KindInt64)})
	}
	reg.Define(types.StructOf("ngx_conf_t", confFields...))

	statsFields := []types.Field{
		{Name: "accepted", Type: types.Scalar(types.KindInt64)},
		{Name: "handled", Type: types.Scalar(types.KindInt64)},
		{Name: "requests", Type: types.Scalar(types.KindInt64)},
	}
	// Updates 2,5,8,... extend the stats struct.
	for g := 1; g*3-1 <= i; g++ {
		statsFields = append(statsFields, types.Field{
			Name: fmt.Sprintf("stat_ext%d", g), Type: types.Scalar(types.KindInt64)})
	}
	reg.Define(types.StructOf("ngx_stats_t", statsFields...))

	reg.Define(types.StructOf("ngx_request_t",
		types.Field{Name: "conn", Type: types.PointerTo(nil)},
		types.Field{Name: "data", Type: types.PointerTo(nil)},
		types.Field{Name: "len", Type: types.Scalar(types.KindInt64)},
	))
	cycleFields := []types.Field{
		{Name: "listen_fd", Type: types.Scalar(types.KindInt64)},
		{Name: "epoll_fd", Type: types.Scalar(types.KindInt64)},
		{Name: "conf", Type: types.PointerTo(nil)},
		{Name: "stats", Type: types.PointerTo(nil)},
		// conns_head carries low-bit metadata: declared pointer-sized
		// integer, conservatively scanned by policy.
		{Name: "conns_head", Type: types.Scalar(types.KindUintPtr)},
	}
	reg.Define(types.StructOf("ngx_cycle_t", cycleFields...))
	reg.Define(&types.Type{Name: "voidptr", Kind: types.KindPtr,
		Size: types.WordSize, Align: types.WordSize})
	return reg
}

// nginxBanner is the per-release server banner.
func nginxBanner(i int) string { return "nginx/" + release("0.8.54", i) }

// NginxVersion builds release i of the nginx model.
func NginxVersion(i int) *program.Version {
	banner := nginxBanner(i)
	ann := program.NewAnnotations()
	// The 22-LOC pointer-encoding annotation (the paper counts it as
	// preparation effort, not update-specific state transfer code):
	// decode the tagged pointer in ngx_cycle.conns_head, remap it,
	// re-encode with the same tag.
	ann.AddAnnotationLOC(22)
	ann.AddObjHandler("ngx_cycle", 0, func(tc program.TransferContext, oldObj, newObj *mem.Object) error {
		if err := tc.DefaultTransfer(oldObj, newObj); err != nil {
			return err
		}
		oldT := oldObj.Type
		f, ok := oldT.FieldByName("conns_head")
		if !ok {
			return errors.New("ngx_cycle lost conns_head")
		}
		enc, err := tc.OldProc().ReadWordAt(oldObj, f.Offset)
		if err != nil {
			return err
		}
		if enc == 0 {
			return nil
		}
		tag := enc & ngxPtrTagMask
		ptr := enc &^ uint64(ngxPtrTagMask)
		if nv, ok := tc.RemapPtr(ptr); ok {
			ptr = nv
		}
		nf, ok := newObj.Type.FieldByName("conns_head")
		if !ok {
			return errors.New("new ngx_cycle lost conns_head")
		}
		return tc.NewProc().WriteWordAt(newObj, nf.Offset, ptr|tag)
	})

	return &program.Version{
		Program: "nginx",
		Release: release("0.8.54", i),
		Seq:     i,
		Types:   nginxTypes(i),
		Globals: []program.GlobalSpec{
			{Name: "ngx_cycle", Type: "ngx_cycle_t"},
			{Name: "ngx_conf", Type: "voidptr"},
			{Name: "ngx_stats", Type: "voidptr"},
		},
		Libs: []program.LibSpec{
			{Name: "libpcre", StateSize: 4096},
			{Name: "libz", StateSize: 4096},
		},
		Annotations: ann,
		Main:        nginxMain(banner),
	}
}

// NginxSpec returns the nginx evaluation spec.
func NginxSpec() *Spec {
	return &Spec{
		Name:        "nginx",
		Port:        NginxPort,
		NumVersions: 26, // base + 25 updates (v0.8.54 - v1.0.15)
		Version:     NginxVersion,
		Paper: Table1Row{
			SL: 1, LL: 2, QP: 2, Per: 2, Vol: 0,
			Updates: 25, ChangedLOC: 9681, Fun: 711, Var: 51, Typ: 54,
			AnnLOC: 22, STLOC: 335,
		},
	}
}

func nginxMain(banner string) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("main")
		defer t.Exit()
		// Daemonification: the short-lived thread class.
		if err := t.Daemonize(); err != nil {
			return err
		}
		if _, err := t.SpawnThread("nginx-daemonizer", func(*program.Thread) error {
			return nil // detaches from the terminal and exits
		}); err != nil {
			return err
		}

		var lfd int
		err := t.Call("ngx_init_cycle", func() error {
			p := t.Proc()
			cfd, err := t.Open("/etc/nginx/nginx.conf")
			if err != nil {
				return err
			}
			if _, err := t.ReadFile(cfd, 4096); err != nil {
				return err
			}
			if err := t.CloseFD(cfd); err != nil {
				return err
			}
			conf, err := t.Malloc("ngx_conf_t")
			if err != nil {
				return err
			}
			if err := p.WriteField(conf, "worker_processes", 1); err != nil {
				return err
			}
			if err := p.WriteField(conf, "keepalive_timeout", 65); err != nil {
				return err
			}
			mime, err := t.MallocBytes(24576)
			if err != nil {
				return err
			}
			if err := p.WriteBytes(mime, 0, []byte("text/html html;image/png png;")); err != nil {
				return err
			}
			if err := p.SetPtr(conf, "mime_table", mime); err != nil {
				return err
			}
			if err := p.SetPtr(p.MustGlobal("ngx_conf"), "", conf); err != nil {
				return err
			}
			stats, err := t.Malloc("ngx_stats_t")
			if err != nil {
				return err
			}
			if err := p.SetPtr(p.MustGlobal("ngx_stats"), "", stats); err != nil {
				return err
			}
			cycle := p.MustGlobal("ngx_cycle")
			if err := p.SetPtr(cycle, "conf", conf); err != nil {
				return err
			}
			if err := p.SetPtr(cycle, "stats", stats); err != nil {
				return err
			}
			lfd, err = t.Socket()
			if err != nil {
				return err
			}
			if err := t.Bind(lfd, NginxPort); err != nil {
				return err
			}
			if err := t.Listen(lfd, 512); err != nil {
				return err
			}
			return p.WriteField(cycle, "listen_fd", uint64(lfd))
		})
		if err != nil {
			return err
		}

		// Fork the worker process.
		err = t.Call("ngx_start_worker_processes", func() error {
			_, err := t.ForkProc("nginx-worker", nginxWorkerMain(banner, lfd))
			return err
		})
		if err != nil {
			return err
		}

		// Master supervises: single persistent quiescent point.
		return t.Loop("ngx_master_process_cycle", func() error {
			if err := t.WaitQP("sigwait@ngx_master"); err != nil {
				if errors.Is(err, program.ErrStopped) {
					return program.ErrLoopExit
				}
				return err
			}
			return nil
		})
	}
}

func nginxWorkerMain(banner string, lfd int) func(*program.Thread) error {
	return func(t *program.Thread) error {
		t.Enter("ngx_worker_process_cycle")
		defer t.Exit()
		p := t.Proc()
		cycle := p.MustGlobal("ngx_cycle")

		var epfd int
		err := t.Call("ngx_worker_process_init", func() error {
			var err error
			epfd, err = t.EpollCreate()
			if err != nil {
				return err
			}
			if err := t.EpollAdd(epfd, lfd); err != nil {
				return err
			}
			return p.WriteField(cycle, "epoll_fd", uint64(epfd))
		})
		if err != nil {
			return err
		}

		// Custom allocators: connection slab + request region, both
		// uninstrumented by default (nginxreg instruments the region).
		slab := mem.NewSlabAllocator(p.Heap(), "ngx_conn", ngxConnSize, false, nil)
		region := mem.NewRegionAllocator(p.Heap(), "ngx_req",
			8192, t.Proc().Instance().Options().RegionInstrumented)

		return t.Loop("ngx_process_events_and_timers", func() error {
			return nginxWorkerIterate(t, banner, lfd, epfd, slab, region)
		})
	}
}

func nginxWorkerIterate(t *program.Thread, banner string, lfd, epfd int,
	slab *mem.SlabAllocator, region *mem.RegionAllocator) error {
	p := t.Proc()
	cycle := p.MustGlobal("ngx_cycle")
	ready, err := t.EpollWaitQP("epoll_wait@ngx_process_events", epfd)
	if err != nil {
		if errors.Is(err, program.ErrStopped) {
			return program.ErrLoopExit
		}
		return err
	}
	as := p.Space()
	if ready == lfd {
		cfd, _, err := p.KProc().Accept(lfd, kernel.NoWait)
		if err != nil {
			return nil
		}
		if err := t.EpollAdd(epfd, cfd); err != nil {
			return err
		}
		// Allocate a connection slot from the slab, push it onto the
		// encoded list.
		slot, err := slab.Alloc(t.StackID())
		if err != nil {
			return err
		}
		if err := as.WriteWord(slot+ngxConnOffFD, uint64(cfd)); err != nil {
			return err
		}
		if err := as.WriteWord(slot+ngxConnOffCount, 0); err != nil {
			return err
		}
		head, err := p.ReadField(cycle, "conns_head")
		if err != nil {
			return err
		}
		if err := as.WriteWord(slot+ngxConnOffNext, head); err != nil {
			return err
		}
		// Low-bit metadata: tag 1 = "active connection".
		if err := p.WriteField(cycle, "conns_head", uint64(slot)|1); err != nil {
			return err
		}
		if stats, ok := p.ReadPtr(cycle, "stats"); ok {
			n, _ := p.ReadField(stats, "accepted")
			if err := p.WriteField(stats, "accepted", n+1); err != nil {
				return err
			}
		}
		return nil
	}
	// Data (or close) on a connection: walk the encoded list.
	var prevSlot mem.Addr
	for enc, _ := p.ReadField(cycle, "conns_head"); enc != 0; {
		slot := mem.Addr(enc &^ uint64(ngxPtrTagMask))
		fd, err := as.ReadWord(slot + ngxConnOffFD)
		if err != nil {
			return err
		}
		next, err := as.ReadWord(slot + ngxConnOffNext)
		if err != nil {
			return err
		}
		if int(fd) != ready {
			prevSlot = slot
			enc = next
			continue
		}
		msg, err := p.KProc().Read(ready, kernel.NoWait)
		if err != nil {
			if errors.Is(err, kernel.ErrClosed) {
				_ = t.EpollDel(epfd, ready)
				_ = t.CloseFD(ready)
				// Unlink the connection before returning the slot to the
				// slab (the slab reuses slots aggressively, so a stale
				// list entry would alias the next accepted connection).
				if prevSlot == 0 {
					if err := p.WriteField(cycle, "conns_head", next); err != nil {
						return err
					}
				} else if err := as.WriteWord(prevSlot+ngxConnOffNext, next); err != nil {
					return err
				}
				if err := as.WriteWord(slot+ngxConnOffState, 1); err != nil {
					return err
				}
				slab.Free(slot)
			}
			return nil
		}
		cnt, _ := as.ReadWord(slot + ngxConnOffCount)
		cnt++
		if err := as.WriteWord(slot+ngxConnOffCount, cnt); err != nil {
			return err
		}
		// Request record + data buffer from the region allocator. With an
		// uninstrumented region the record's pointers are only reachable
		// conservatively (likely pointers); the nginxreg configuration
		// tags the record and makes them precise.
		reqT, _ := p.Instance().Version().Types.Lookup("ngx_request_t")
		rec, err := region.Alloc(reqT.Size, reqT, t.StackID())
		if err != nil {
			return err
		}
		buf, err := region.Alloc(uint64(len(msg))+32, nil, t.StackID())
		if err != nil {
			return err
		}
		if err := as.WriteAt(buf, msg); err != nil {
			return err
		}
		if err := as.WriteWord(rec, uint64(slot)); err != nil { // ->conn
			return err
		}
		if err := as.WriteWord(rec+8, uint64(buf)); err != nil { // ->data
			return err
		}
		if err := as.WriteWord(rec+16, uint64(len(msg))); err != nil {
			return err
		}
		if stats, ok := p.ReadPtr(cycle, "stats"); ok {
			n, _ := p.ReadField(stats, "requests")
			if err := p.WriteField(stats, "requests", n+1); err != nil {
				return err
			}
		}
		body := "<html>hello from nginx</html>"
		reply := fmt.Sprintf("HTTP/1.1 200 OK banner=%s req=%d len=%d body=%s",
			banner, cnt, len(body), body)
		if err := t.Write(ready, []byte(reply)); err != nil && !errors.Is(err, kernel.ErrClosed) {
			return err
		}
		return nil
	}
	return nil
}
