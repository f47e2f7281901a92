package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/program"
)

// Controller is the mcr-ctl backend: it listens on a (simulated) Unix
// domain socket and serves live-update requests, mirroring the paper's
// mcr-ctl tool that "allows users to signal live updates to the MCR
// backend using Unix domain sockets".
type Controller struct {
	engine *Engine
	path   string

	mu       sync.Mutex
	versions map[string]*program.Version // staged updates by release name
	stop     chan struct{}
	done     chan struct{}
}

// NewController creates (but does not start) a controller listening at the
// given socket path.
func NewController(e *Engine, path string) *Controller {
	return &Controller{
		engine:   e,
		path:     path,
		versions: make(map[string]*program.Version),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Stage registers a version so a later "update <release>" command can
// deploy it (the on-disk new-version binary of the real system).
func (c *Controller) Stage(v *program.Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.versions[v.Release] = v
}

// Start binds the control socket and serves requests until Stop.
func (c *Controller) Start() error {
	ctl := c.engine.Kernel().NewProc()
	fd := ctl.Socket()
	if err := ctl.BindUnix(fd, c.path); err != nil {
		return fmt.Errorf("core: controller bind: %w", err)
	}
	if err := ctl.Listen(fd, 16); err != nil {
		return err
	}
	go c.serve(ctl, fd)
	return nil
}

// Stop shuts the controller down.
func (c *Controller) Stop() {
	close(c.stop)
	<-c.done
}

func (c *Controller) serve(ctl *kernel.Proc, lfd int) {
	defer close(c.done)
	defer ctl.Exit()
	for {
		cfd, _, err := ctl.Accept(lfd, c.stop)
		if err != nil {
			return // stopped
		}
		c.handle(ctl, cfd)
		_ = ctl.Close(cfd)
	}
}

func (c *Controller) handle(ctl *kernel.Proc, cfd int) {
	expired := make(chan struct{})
	timer := time.AfterFunc(time.Second, func() { close(expired) })
	req, err := ctl.Read(cfd, expired)
	timer.Stop()
	if err != nil {
		return
	}
	resp := c.dispatch(string(req))
	_ = ctl.Write(cfd, []byte(resp))
}

func (c *Controller) dispatch(req string) string {
	fields := strings.Fields(req)
	if len(fields) == 0 {
		return "ERR empty request"
	}
	switch fields[0] {
	case "ping":
		return "PONG"
	case "status":
		inst := c.engine.Current()
		if inst == nil {
			return "ERR not running"
		}
		out := fmt.Sprintf("OK %s procs=%d", inst.Version(), len(inst.Procs()))
		if ws := c.engine.WarmStatus(); ws.Armed {
			out += " " + warmLine(ws)
		}
		return out
	case "warm":
		if len(fields) != 2 {
			return "ERR usage: warm <on|off|status>"
		}
		switch fields[1] {
		case "on":
			if err := c.engine.ArmWarm(); err != nil {
				return fmt.Sprintf("ERR %v", err)
			}
			return "OK warm armed"
		case "off":
			c.engine.DisarmWarm()
			return "OK warm disarmed"
		case "status":
			ws := c.engine.WarmStatus()
			if !ws.Armed {
				return "OK warm=disarmed"
			}
			return "OK " + warmLine(ws)
		default:
			return "ERR usage: warm <on|off|status>"
		}
	case "events":
		if len(fields) != 1 {
			return "ERR usage: events"
		}
		rec := c.engine.Recorder()
		if rec == nil {
			return "ERR no flight recorder armed"
		}
		evs := rec.Events()
		if len(evs) == 0 {
			return "OK no events recorded"
		}
		out := "OK update-phase timeline\n" + obs.Timeline(evs)
		if d := rec.Dropped(); d > 0 {
			out += fmt.Sprintf("(%d older events overflowed the ring)\n", d)
		}
		return out
	case "update":
		if len(fields) != 2 {
			return "ERR usage: update <release>"
		}
		c.mu.Lock()
		v := c.versions[fields[1]]
		c.mu.Unlock()
		if v == nil {
			return fmt.Sprintf("ERR unknown release %q", fields[1])
		}
		rep, err := c.engine.Update(v)
		if err != nil {
			return fmt.Sprintf("ERR rolled back: %v", err)
		}
		return fmt.Sprintf("OK updated to %s in %v (quiesce=%v migrate=%v transfer=%v)",
			v, rep.TotalTime.Round(time.Millisecond), rep.QuiesceTime.Round(time.Millisecond),
			rep.ControlMigrationTime.Round(time.Millisecond), rep.TransferWork().Round(time.Millisecond))
	default:
		return fmt.Sprintf("ERR unknown command %q", fields[0])
	}
}

// warmLine renders the warm-standby readiness for status responses: the
// analysis generation, plus the work tally behind it — per process
// (reanalyzed/revalidated) and per page (rescanned/reused, and what the
// last pass alone scanned).
func warmLine(ws WarmStatus) string {
	return fmt.Sprintf("warm=armed current=%v agen=%d duty=%.2f passes=%d yields=%d reanalyzed=%d revalidated=%d rescanned=%dpages reused=%dpages lastpass=%dpages",
		ws.Current, ws.AnalysisGen, ws.DutyCycle,
		ws.Passes, ws.Yields, ws.Reanalyzed, ws.Revalidated,
		ws.PagesRescanned, ws.PagesReused, ws.LastPagesRescanned)
}

// ctlReplyWait bounds how long CtlRequest waits for a reply. An update
// request is answered only once the update commits or rolls back, and
// under the default watchdog profile every phase may run to its budget
// before a wedged update rolls back; the wait is that whole profile plus
// 30s for the rollback and the reply, so a hang surfaces as its rollback
// cause, never as a client timeout.
func ctlReplyWait() time.Duration {
	d := 30 * time.Second
	for _, budget := range DefaultPhaseDeadlines() {
		d += budget
	}
	return d
}

// CtlRequest sends one mcr-ctl request over the simulated kernel and
// returns the response (the client side of the protocol).
func CtlRequest(k *kernel.Kernel, path, req string) (string, error) {
	cc, err := k.ConnectUnix(path)
	if err != nil {
		return "", err
	}
	defer cc.Close()
	if err := cc.Send([]byte(req)); err != nil {
		return "", err
	}
	resp, err := cc.Recv(ctlReplyWait())
	if err != nil {
		return "", err
	}
	return string(resp), nil
}
