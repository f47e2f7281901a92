package kernel

import (
	"fmt"
	"sync"
)

// File is an in-memory file: the configuration files, htdocs and logs the
// model servers read and write.
type File struct {
	mu   sync.Mutex
	data []byte
}

// WriteFile creates or replaces a file (host-side seeding of configs).
func (k *Kernel) WriteFile(path string, data []byte) {
	k.mu.Lock()
	defer k.mu.Unlock()
	f := k.fs[path]
	if f == nil {
		f = &File{}
		k.fs[path] = f
	}
	f.mu.Lock()
	f.data = make([]byte, len(data))
	copy(f.data, data)
	f.mu.Unlock()
}

// ReadFileDirect returns a file's contents without going through an fd
// (host-side inspection).
func (k *Kernel) ReadFileDirect(path string) ([]byte, bool) {
	k.mu.Lock()
	f := k.fs[path]
	k.mu.Unlock()
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, len(f.data))
	copy(out, f.data)
	return out, true
}

// Open opens an existing file and returns its fd.
func (p *Proc) Open(path string) (int, error) {
	p.k.mu.Lock()
	f := p.k.fs[path]
	p.k.mu.Unlock()
	if f == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoFile, path)
	}
	obj := &Object{kind: ObjFile, refs: 1, file: f, k: p.k}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.installLocked(obj), nil
}

// Create opens a file for writing, creating it if needed.
func (p *Proc) Create(path string) (int, error) {
	p.k.mu.Lock()
	f := p.k.fs[path]
	if f == nil {
		f = &File{}
		p.k.fs[path] = f
	}
	p.k.mu.Unlock()
	obj := &Object{kind: ObjFile, refs: 1, file: f, k: p.k}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.installLocked(obj), nil
}

// ReadFile reads up to n bytes from the file fd at its current offset.
func (p *Proc) ReadFile(fd int, n int) ([]byte, error) {
	obj, err := p.FD(fd)
	if err != nil {
		return nil, err
	}
	if obj.Kind() != ObjFile {
		return nil, fmt.Errorf("kernel: read fd %d: not a file", fd)
	}
	obj.file.mu.Lock()
	defer obj.file.mu.Unlock()
	obj.mu.Lock()
	defer obj.mu.Unlock()
	if obj.offset >= len(obj.file.data) {
		return nil, nil // EOF
	}
	end := obj.offset + n
	if end > len(obj.file.data) {
		end = len(obj.file.data)
	}
	out := make([]byte, end-obj.offset)
	copy(out, obj.file.data[obj.offset:end])
	obj.offset = end
	return out, nil
}

// WriteFileFD appends data to the file fd.
func (p *Proc) WriteFileFD(fd int, data []byte) error {
	obj, err := p.FD(fd)
	if err != nil {
		return err
	}
	if obj.Kind() != ObjFile {
		return fmt.Errorf("kernel: write fd %d: not a file", fd)
	}
	obj.file.mu.Lock()
	defer obj.file.mu.Unlock()
	obj.file.data = append(obj.file.data, data...)
	return nil
}
