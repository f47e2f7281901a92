// Package servers contains the four model server programs the paper
// evaluates MCR on — Apache httpd, nginx, vsftpd and the OpenSSH daemon —
// rebuilt against the simulated substrate. Each model reproduces the
// structural properties the evaluation depends on: the process/thread
// model (and hence the quiescence-profiling rows of Table 1), the
// allocator idioms (nested regions, slabs+regions, plain malloc — the
// pointer census of Table 2), the annotation cases of §7/§8 (httpd's
// running-instance check, nginx's low-bit pointer encoding, volatile
// quiescent points), and an update stream of the same length as the
// paper's (5/25/5/5 releases).
package servers

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/mem"
	"repro/internal/program"
)

// Well-known ports of the model servers.
const (
	HttpdPort  = 80
	NginxPort  = 8080
	VsftpdPort = 21
	SshdPort   = 22
)

// Table1Row carries the paper's reference numbers for one program (Table
// 1), reported alongside our measured values by the experiment harness.
type Table1Row struct {
	SL, LL, QP, Per, Vol int
	Updates              int
	ChangedLOC           int
	Fun, Var, Typ        int
	AnnLOC, STLOC        int
}

// Spec describes one evaluated server program.
type Spec struct {
	Name string
	Port int
	// NumVersions is the length of the update stream including the base
	// release (paper: 5 updates -> 6 versions; nginx: 25 -> 26).
	NumVersions int
	// Version builds release i (0 = base).
	Version func(i int) *program.Version
	// Paper holds Table 1's reference numbers.
	Paper Table1Row
}

// Catalog returns the four evaluated servers.
func Catalog() []*Spec {
	return []*Spec{
		HttpdSpec(),
		NginxSpec(),
		VsftpdSpec(),
		SshdSpec(),
	}
}

// SpecByName returns the named spec.
func SpecByName(name string) (*Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("servers: unknown server %q", name)
}

// SeedFiles populates the simulated filesystem with the configuration
// files and content the servers expect.
func SeedFiles(k *kernel.Kernel) {
	k.WriteFile("/etc/httpd/httpd.conf", []byte("ServerName mcr-test\nWorkers 2\nThreadsPerWorker 50\n"))
	k.WriteFile("/var/www/index.html", []byte("<html>hello from httpd</html>"))
	k.WriteFile("/var/www/big.bin", make([]byte, 1<<16))
	k.WriteFile("/etc/nginx/nginx.conf", []byte("worker_processes 1;\nkeepalive_timeout 65;\n"))
	k.WriteFile("/usr/share/nginx/index.html", []byte("<html>hello from nginx</html>"))
	k.WriteFile("/etc/vsftpd.conf", []byte("anonymous_enable=NO\nlocal_enable=YES\n"))
	k.WriteFile("/srv/ftp/readme.txt", []byte("welcome to vsftpd"))
	k.WriteFile("/srv/ftp/big.dat", make([]byte, 1<<20))
	k.WriteFile("/etc/ssh/sshd_config", []byte("Port 22\nPermitRootLogin no\n"))
	k.WriteFile("/etc/ssh/host_key", []byte("---- host key material ----"))
}

// fieldwiseCopyHandler is the object-handler body vsftpd and sshd register
// for their session structs: the struct is conservatively traced (it
// hides pointers in char buffers), so automatic type transformation would
// conflict; the annotation asserts that copying common fields byte-wise
// is safe because every hidden-pointer target is pinned immutable.
func fieldwiseCopyHandler(tc program.TransferContext, oldObj, newObj *mem.Object) error {
	if oldObj.Type == nil || newObj.Type == nil {
		return fmt.Errorf("servers: fieldwise copy needs typed objects (%s -> %s)", oldObj, newObj)
	}
	for _, nf := range newObj.Type.Fields {
		of, ok := oldObj.Type.FieldByName(nf.Name)
		if !ok {
			continue // added field: stays zero
		}
		n := of.Type.Size
		if nf.Type.Size < n {
			n = nf.Type.Size
		}
		data, err := tc.OldProc().ReadBytes(oldObj, of.Offset, n)
		if err != nil {
			return err
		}
		if err := tc.NewProc().WriteBytes(newObj, nf.Offset, data); err != nil {
			return err
		}
	}
	return nil
}

// setQuit marks a vsftpd or sshd session over (its session struct's quit
// field) and wakes the session's threads that wait for it in CondQP.
func setQuit(p *program.Proc, sess *mem.Object) error {
	err := p.WriteField(sess, "quit", 1)
	p.Notify()
	return err
}

// release builds a dotted release string for version i of a stream
// starting at base (e.g. base "0.8.54" i=3 -> "0.8.57" in spirit; we use
// a simple suffix scheme).
func release(base string, i int) string {
	if i == 0 {
		return base
	}
	return fmt.Sprintf("%s+u%d", base, i)
}
