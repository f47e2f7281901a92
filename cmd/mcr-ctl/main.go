// Command mcr-ctl demonstrates the live-update control protocol: it
// launches a model server with an MCR controller listening on a
// (simulated) Unix domain socket, drives client traffic, and issues the
// same commands the paper's mcr-ctl tool sends — status queries and
// update requests — printing every request/response pair.
//
// The whole scenario runs inside one process because the substrate kernel
// is simulated; the protocol and control flow are exactly those of the
// paper's out-of-process tool.
//
// Usage:
//
//	mcr-ctl -server nginx -updates 3 [-adopt] [-warm] [-canary SLO] [-trace-out FILE]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		server     = flag.String("server", "nginx", "server to run (httpd, nginx, vsftpd, sshd)")
		updates    = flag.Int("updates", 2, "number of staged updates to deploy")
		adopt      = flag.Bool("adopt", false, "arm the zero-copy page-adoption fast path (layout-identical pages move, not copy; shows the adopted-pages line)")
		warm       = flag.Bool("warm", false, "arm the warm-standby readiness daemon (updates start at quiesce; shows the warm status line)")
		canarySpec = flag.String("canary", "", "arm a post-commit canary window with this SLO (e.g. p99=5ms,tput=0.5,err=0.01); a breach auto-reverts the update")
		traceOut   = flag.String("trace-out", "", "arm the flight recorder and write a Chrome-trace-event JSON file here (load in Perfetto or chrome://tracing)")
		fault      = flag.String("fault", "", "arm fault-injection point(s), comma-separated (e.g. restart-hang or restart-crash,rollback-restore; see internal/faultinject); the update rolls back and mcr-ctl exits 3")
		deadline   = flag.String("deadline", "", "per-phase watchdog budgets as phase=dur[,phase=dur...] (e.g. restart=250ms,transfer=1s); unlisted phases keep the default profile")
	)
	flag.Parse()

	cfg := config{Server: *server, Updates: *updates, Adopt: *adopt,
		Warm: *warm, Canary: *canarySpec, TraceOut: *traceOut, Fault: *fault, Deadlines: *deadline}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcr-ctl:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		if errors.Is(err, errRolledBack) {
			// Distinct status: the deployment failed but the rollback
			// guarantee held (see the "rollback cause:" output line).
			os.Exit(3)
		}
		os.Exit(1)
	}
}
