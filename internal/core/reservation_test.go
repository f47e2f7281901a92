package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/servers"
	"repro/internal/workload"
)

// reservationOf returns nginx's coalesced superobject — the largest heap
// object of the instance, reserved in every process by fork semantics —
// and how many of its pages each process holds resident.
func reservationOf(t *testing.T, inst *program.Instance) (mem.Object, map[program.ProcKey]int) {
	t.Helper()
	var r mem.Object
	for _, p := range inst.Procs() {
		for _, o := range p.Index().All() {
			if o.Kind == mem.ObjHeap && o.Size > r.Size {
				r = *o
			}
		}
	}
	resident := make(map[program.ProcKey]int)
	for _, p := range inst.Procs() {
		n := 0
		if err := p.Space().WalkResident(r.Addr, r.Size, func(mem.Addr, []byte) { n++ }); err != nil {
			t.Fatal(err)
		}
		resident[p.Key()] = n
	}
	return r, resident
}

// TestReservationStaysDemandZero: nginx's reservation is demand-zero past
// the page or two of connection slab it holds, and an update keeps it
// so. After a small preload and a first update (which places the
// reservation), a copy-path update (v1 -> v2, a type change) and an
// adopt-path one (v2 -> v3, layout-identical, nothing served in between)
// each leave every new process with no more resident pages inside the
// reservation than the old one had there, plus the header page — while
// the default engine's transfer checksum and state digest equal the
// sequential engine's at every step.
func TestReservationStaysDemandZero(t *testing.T) {
	spec := servers.NginxSpec()
	const preload = 4000
	type step struct{ checksum, digest uint64 }
	run := func(t *testing.T, opts Options) []step {
		k := kernel.New()
		servers.SeedFiles(k)
		e, err := NewEngine(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Launch(spec.Version(0)); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		s, err := workload.OpenKeepalive(k, spec.Port, true)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := 0; i < preload; i++ {
			if _, err := workload.KeepaliveRequest(s, fmt.Sprintf("GET /p%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		var steps []step
		for v := 1; v <= 3; v++ {
			res, before := reservationOf(t, e.Current())
			rep, err := e.Update(spec.Version(v))
			if err != nil {
				t.Fatal(err)
			}
			steps = append(steps, step{rep.Transfer.Checksum, mustDigest(t, e.Current())})
			if v == 1 {
				continue // v0 has no reservation yet: this update places it
			}
			now, after := reservationOf(t, e.Current())
			if now.Addr != res.Addr || now.Size != res.Size {
				t.Fatalf("v%d: reservation moved: %s, was %s", v, &now, &res)
			}
			if pages := int(res.Size / mem.PageSize); pages < 64 {
				t.Fatalf("v%d: reservation spans %d pages: too few to tell", v, pages)
			}
			for key, n := range after {
				if n > before[key]+1 {
					t.Errorf("v%d: %v holds %d resident pages of the reservation, the old process %d", v, key, n, before[key])
				}
			}
			if v == 3 && !opts.Sequential && rep.Transfer.PagesAdopted == 0 {
				t.Error("v3: the layout-identical update adopted no pages")
			}
		}
		// The session survived: the next request is its preload+2nd.
		resp, err := workload.KeepaliveRequest(s, "GET /after")
		if want := fmt.Sprintf("req=%d", preload+2); err != nil || !strings.Contains(resp, want) {
			t.Fatalf("after the updates: %q, %v (want %s)", resp, err, want)
		}
		return steps
	}
	base := run(t, Options{Sequential: true, Audit: true})
	got := run(t, AuditOptions())
	for i := range base {
		if got[i] != base[i] {
			t.Errorf("update to v%d: checksum/digest %#x, sequential engine %#x", i+1, got[i], base[i])
		}
	}
}
