package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/servers"
	"repro/internal/workload"
)

// Figure3Point is one measurement: state transfer time (and supporting
// update-time components) at a given number of open connections.
type Figure3Point struct {
	Connections          int
	StateTransfer        time.Duration
	Quiesce              time.Duration
	ControlMigration     time.Duration
	Downtime             time.Duration
	Total                time.Duration
	BytesTransferred     uint64
	DirtyReductionNoConn float64 // dirty-filter savings at this point
}

// Figure3Series is one server's curve.
type Figure3Series struct {
	Name   string
	Points []Figure3Point
}

// Figure3Result is the regenerated Figure 3.
type Figure3Result struct {
	Series []Figure3Series
}

// RunFigure3 regenerates Figure 3: for every server and connection count,
// open that many live sessions, perform one live update, and record the
// state-transfer time (plus the other update-time components of §8).
func RunFigure3(scale Scale) (*Figure3Result, error) {
	res := &Figure3Result{}
	for _, spec := range servers.Catalog() {
		if spec.Name == "httpd" {
			old := servers.SetHttpdPoolThreads(scale.poolThreads())
			defer servers.SetHttpdPoolThreads(old)
		}
		series := Figure3Series{Name: spec.Name}
		for _, n := range scale.connPoints() {
			pt, err := figure3Point(spec, n)
			if err != nil {
				return nil, fmt.Errorf("figure3 %s@%d conns: %w", spec.Name, n, err)
			}
			series.Points = append(series.Points, pt)
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

func figure3Point(spec *servers.Spec, conns int) (Figure3Point, error) {
	e, k, err := launchServer(spec, core.Options{
		QuiesceTimeout: 30 * time.Second,
		StartupTimeout: 30 * time.Second,
	})
	if err != nil {
		return Figure3Point{}, err
	}
	defer e.Shutdown()
	sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, conns)
	if err != nil {
		return Figure3Point{}, err
	}
	defer workload.CloseSessions(sessions)
	rep, err := e.Update(spec.Version(1))
	if err != nil {
		return Figure3Point{}, err
	}
	return Figure3Point{
		Connections:          conns,
		StateTransfer:        rep.TransferWork(),
		Quiesce:              rep.QuiesceTime,
		ControlMigration:     rep.ControlMigrationTime,
		Downtime:             rep.Downtime,
		Total:                rep.TotalTime,
		BytesTransferred:     rep.Transfer.BytesTransferred,
		DirtyReductionNoConn: rep.Transfer.DirtyReduction(),
	}, nil
}

// Render formats the Figure 3 series as rows of state-transfer times.
func (r *Figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: state transfer time vs open connections\n")
	if len(r.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s", "conns")
	for _, pt := range r.Series[0].Points {
		fmt.Fprintf(&b, "%12d", pt.Connections)
	}
	b.WriteString("\n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-8s", s.Name)
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "%12s", pt.StateTransfer.Round(10*time.Microsecond))
		}
		b.WriteString("\n")
	}
	b.WriteString("paper: 28-187 ms at 0 conns, average +371 ms at 100 conns;\n")
	b.WriteString("       steeper growth for process-per-connection servers (vsftpd, sshd)\n")
	return b.String()
}

// DirtyStats compares transferred bytes with and without the soft-dirty
// filter at a fixed connection count (the 68%-86% reduction of §8).
type DirtyStats struct {
	Name        string
	Connections int
	Filtered    uint64
	Unfiltered  uint64
}

// Reduction returns the fraction of bytes the filter saved.
func (d DirtyStats) Reduction() float64 {
	if d.Unfiltered == 0 {
		return 0
	}
	return 1 - float64(d.Filtered)/float64(d.Unfiltered)
}

// RunDirtyStats measures the dirty-filter reduction per server.
func RunDirtyStats(scale Scale) ([]DirtyStats, error) {
	conns := scale.connPoints()[len(scale.connPoints())-1]
	var out []DirtyStats
	for _, spec := range servers.Catalog() {
		if spec.Name == "httpd" {
			old := servers.SetHttpdPoolThreads(scale.poolThreads())
			defer servers.SetHttpdPoolThreads(old)
		}
		d := DirtyStats{Name: spec.Name, Connections: conns}
		for _, disable := range []bool{false, true} {
			e, k, err := launchServer(spec, core.Options{
				DisableDirtyFilter: disable,
				QuiesceTimeout:     30 * time.Second,
				StartupTimeout:     30 * time.Second,
			})
			if err != nil {
				return nil, err
			}
			sessions, err := workload.OpenSessions(k, spec.Name, spec.Port, conns)
			if err != nil {
				e.Shutdown()
				return nil, err
			}
			rep, err := e.Update(spec.Version(1))
			if err != nil {
				e.Shutdown()
				return nil, fmt.Errorf("dirtystats %s: %w", spec.Name, err)
			}
			if disable {
				d.Unfiltered = rep.Transfer.BytesTransferred
			} else {
				d.Filtered = rep.Transfer.BytesTransferred
			}
			workload.CloseSessions(sessions)
			e.Shutdown()
		}
		out = append(out, d)
	}
	return out, nil
}

// driveTableSessions issues sustained traffic on the live sessions so the
// census sees the per-connection request state the paper's benchmarks
// accumulate (httpd's region-allocated request brigades especially).
func driveTableSessions(spec *servers.Spec, sessions []*workload.Session, scale Scale) error {
	reqs := 40
	if scale == Full {
		reqs = 400
	}
	for si, s := range sessions {
		switch spec.Name {
		case "httpd", "nginx":
			for i := 0; i < reqs; i++ {
				if _, err := workload.KeepaliveRequest(s, fmt.Sprintf("GET /s%d-r%d", si, i)); err != nil {
					return err
				}
			}
		case "vsftpd":
			for i := 0; i < reqs/8; i++ {
				if _, err := workload.FTPCommand(s, "STAT"); err != nil {
					return err
				}
			}
		case "sshd":
			for i := 0; i < reqs/8; i++ {
				if _, err := workload.SSHExec(s, "true"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
