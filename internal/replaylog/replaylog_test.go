package replaylog

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"testing/quick"
)

func rec(stack []string, call string, args []any, result any) Record {
	return Record{
		StackID: StackID(stack), Stack: stack, Call: call,
		Args: args, Result: result, Immutable: true,
	}
}

func v1Log() *Log {
	l := NewLog()
	l.Append(rec([]string{"main", "server_init"}, "socket", nil, 4))
	l.Append(rec([]string{"main", "server_init"}, "bind", []any{4, 80}, 0))
	l.Append(rec([]string{"main", "server_init"}, "listen", []any{4, 128}, 0))
	l.Append(rec([]string{"main", "server_init", "load_config"}, "open", []any{"/etc/srv.conf"}, 5))
	l.Seal()
	return l
}

func TestStackIDProperties(t *testing.T) {
	a := StackID([]string{"main", "server_init"})
	b := StackID([]string{"main", "server_init"})
	if a != b {
		t.Error("same stack hashes differently")
	}
	if StackID([]string{"main", "server_init2"}) == a {
		t.Error("renamed function yields same ID")
	}
	if StackID([]string{"main"}) == a {
		t.Error("prefix stack yields same ID")
	}
	// Concatenation ambiguity: ["ab","c"] vs ["a","bc"] must differ.
	if StackID([]string{"ab", "c"}) == StackID([]string{"a", "bc"}) {
		t.Error("stack boundary not separated in hash")
	}
}

// TestStackIDMatchesFNV pins StackID to hash/fnv's FNV-1a-64 over each
// frame name followed by a zero byte, on seeded random stacks with the
// empty stack and empty frame names among them, and checks it allocates
// nothing.
func TestStackIDMatchesFNV(t *testing.T) {
	ref := func(stack []string) uint64 {
		h := fnv.New64a()
		for _, fn := range stack {
			h.Write([]byte(fn))
			h.Write([]byte{0})
		}
		return h.Sum64()
	}
	rng := rand.New(rand.NewSource(1))
	stacks := [][]string{nil, {}, {""}, {"", ""}, {"main", ""}, {"", "main"}}
	for i := 0; i < 500; i++ {
		stack := make([]string, rng.Intn(8))
		for j := range stack {
			name := make([]byte, rng.Intn(24))
			for k := range name {
				name[k] = byte(rng.Intn(256))
			}
			stack[j] = string(name)
		}
		stacks = append(stacks, stack)
	}
	for _, stack := range stacks {
		if got, want := StackID(stack), ref(stack); got != want {
			t.Fatalf("StackID(%q) = %#x, hash/fnv %#x", stack, got, want)
		}
	}
	stack := []string{"main", "server_init", "ngx_palloc"}
	if n := testing.AllocsPerRun(100, func() { StackID(stack) }); n != 0 {
		t.Fatalf("StackID allocates %v times per call, want 0", n)
	}
}

func TestRecordReplayPerfectMatch(t *testing.T) {
	rp := NewReplayer(v1Log(), StrategyStackID)
	stack := []string{"main", "server_init"}
	r, out := rp.Match(StackID(stack), stack, "socket", nil)
	if out != Replayed {
		t.Fatalf("outcome = %v, want Replayed", out)
	}
	if r.Result != 4 {
		t.Errorf("replayed result = %v, want 4 (the inherited fd)", r.Result)
	}
	if _, out := rp.Match(StackID(stack), stack, "bind", []any{4, 80}); out != Replayed {
		t.Errorf("bind outcome = %v", out)
	}
	if _, out := rp.Match(StackID(stack), stack, "listen", []any{4, 128}); out != Replayed {
		t.Errorf("listen outcome = %v", out)
	}
	cfgStack := []string{"main", "server_init", "load_config"}
	if _, out := rp.Match(StackID(cfgStack), cfgStack, "open", []any{"/etc/srv.conf"}); out != Replayed {
		t.Errorf("open outcome = %v", out)
	}
	if left := rp.Leftover(); len(left) != 0 {
		t.Errorf("leftover = %v, want none", left)
	}
	replayed, live, conflicted := rp.Stats()
	if replayed != 4 || live != 0 || conflicted != 0 {
		t.Errorf("stats = %d/%d/%d", replayed, live, conflicted)
	}
}

func TestReplayUnknownStackRunsLive(t *testing.T) {
	rp := NewReplayer(v1Log(), StrategyStackID)
	// v2 added a new startup step with a new call stack: executed live.
	stack := []string{"main", "server_init", "init_tls"}
	r, out := rp.Match(StackID(stack), stack, "open", []any{"/etc/cert.pem"})
	if out != Live || r != nil {
		t.Errorf("new code path: outcome = %v, rec = %v; want Live, nil", out, r)
	}
}

func TestReplayArgumentMismatchConflicts(t *testing.T) {
	rp := NewReplayer(v1Log(), StrategyStackID)
	stack := []string{"main", "server_init"}
	rp.Match(StackID(stack), stack, "socket", nil)
	// v2 binds to a different port: argument mismatch -> conflict.
	_, out := rp.Match(StackID(stack), stack, "bind", []any{4, 8080})
	if out != Conflicted {
		t.Fatalf("outcome = %v, want Conflicted", out)
	}
	if n := len(rp.Conflicts()); n != 1 {
		t.Errorf("conflicts = %d, want 1", n)
	}
}

func TestReplayInsertedCallRunsLive(t *testing.T) {
	rp := NewReplayer(v1Log(), StrategyStackID)
	stack := []string{"main", "server_init"}
	// v2 inserted a different call before the recorded socket: it runs
	// live and the queue is not consumed.
	if _, out := rp.Match(StackID(stack), stack, "open", []any{"/x"}); out != Live {
		t.Fatalf("inserted call outcome = %v, want Live", out)
	}
	if _, out := rp.Match(StackID(stack), stack, "socket", nil); out != Replayed {
		t.Fatalf("recorded call after insertion = %v, want Replayed", out)
	}
}

func TestReplayMutableMarkersSkippable(t *testing.T) {
	// A mutable record (closed-fd socket) interleaved between immutable
	// ones: v2 may re-execute it (matched -> Live) or omit it entirely.
	mk := func() *Log {
		l := NewLog()
		s := []string{"main", "init"}
		l.Append(rec(s, "socket", nil, 3))
		tmp := Record{StackID: StackID(s), Stack: s, Call: "socket", Args: nil,
			Result: 4, Immutable: false}
		l.Append(tmp)
		l.Append(rec(s, "fork", []any{"worker"}, 2))
		l.Seal()
		return l
	}
	s := []string{"main", "init"}

	// Case 1: v2 re-executes the mutable op.
	rp := NewReplayer(mk(), StrategyStackID)
	if r, out := rp.Match(StackID(s), s, "socket", nil); out != Replayed || r.Result != 3 {
		t.Fatalf("first socket = %v/%v", r, out)
	}
	if r, out := rp.Match(StackID(s), s, "socket", nil); out != Live || r == nil {
		t.Fatalf("mutable socket = %v/%v, want matched Live", r, out)
	}
	if _, out := rp.Match(StackID(s), s, "fork", []any{"worker"}); out != Replayed {
		t.Fatalf("fork not replayed")
	}
	if len(rp.Leftover()) != 0 {
		t.Error("leftovers after full replay")
	}

	// Case 2: v2 omits the mutable op: the marker is dropped silently.
	rp = NewReplayer(mk(), StrategyStackID)
	rp.Match(StackID(s), s, "socket", nil)
	if _, out := rp.Match(StackID(s), s, "fork", []any{"worker"}); out != Replayed {
		t.Fatalf("fork after omitted mutable op not replayed")
	}
	if len(rp.Leftover()) != 0 {
		t.Error("mutable leftovers reported")
	}
}

func TestReplayOmittedSyscallLeftover(t *testing.T) {
	rp := NewReplayer(v1Log(), StrategyStackID)
	stack := []string{"main", "server_init"}
	rp.Match(StackID(stack), stack, "socket", nil)
	rp.Match(StackID(stack), stack, "bind", []any{4, 80})
	rp.Match(StackID(stack), stack, "listen", []any{4, 128})
	// v2 omitted the config open: leftover record = conflict material.
	left := rp.Leftover()
	if len(left) != 1 || left[0].Call != "open" {
		t.Fatalf("leftover = %v, want the open record", left)
	}
}

func TestReplayToleratesReordering(t *testing.T) {
	// Two independent call sites recorded in one order, replayed in the
	// other: stack-ID matching tolerates it, global ordering conflicts.
	l := NewLog()
	sa := []string{"main", "init_a"}
	sb := []string{"main", "init_b"}
	l.Append(rec(sa, "socket", nil, 4))
	l.Append(rec(sb, "socket", nil, 5))
	l.Seal()

	rp := NewReplayer(l, StrategyStackID)
	if _, out := rp.Match(StackID(sb), sb, "socket", nil); out != Replayed {
		t.Errorf("stack-ID reorder: outcome = %v, want Replayed", out)
	}
	if _, out := rp.Match(StackID(sa), sa, "socket", nil); out != Replayed {
		t.Errorf("stack-ID reorder second: outcome = %v", out)
	}

	rpg := NewReplayer(l, StrategyGlobalOrder)
	if _, out := rpg.Match(StackID(sb), sb, "socket", nil); out != Conflicted {
		t.Errorf("global-order reorder: outcome = %v, want Conflicted", out)
	}
}

func TestReplaySameStackOrderPreserved(t *testing.T) {
	// Repeated calls from the same call stack must replay in order (their
	// results differ: two sockets from one loop).
	l := NewLog()
	s := []string{"main", "open_ports"}
	l.Append(rec(s, "socket", nil, 4))
	l.Append(rec(s, "socket", nil, 5))
	l.Seal()
	rp := NewReplayer(l, StrategyStackID)
	r1, _ := rp.Match(StackID(s), s, "socket", nil)
	r2, _ := rp.Match(StackID(s), s, "socket", nil)
	if r1.Result != 4 || r2.Result != 5 {
		t.Errorf("results = %v, %v; want 4, 5", r1.Result, r2.Result)
	}
}

func TestMutableRecordsNotReplayed(t *testing.T) {
	l := NewLog()
	s := []string{"main", "server_init"}
	l.Append(Record{StackID: StackID(s), Stack: s, Call: "getpid", Immutable: false})
	l.Append(rec(s, "socket", nil, 4))
	l.Seal()
	rp := NewReplayer(l, StrategyStackID)
	// The mutable record is invisible to matching: socket matches first.
	r, out := rp.Match(StackID(s), s, "socket", nil)
	if out != Replayed || r.Result != 4 {
		t.Errorf("outcome = %v, result = %v", out, r.Result)
	}
}

func TestSealedLogRejectsAppend(t *testing.T) {
	l := NewLog()
	l.Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("append to sealed log did not panic")
		}
	}()
	l.Append(Record{Call: "socket"})
}

func TestArgsEqualDeep(t *testing.T) {
	tests := []struct {
		a, b []any
		want bool
	}{
		{nil, nil, true},
		{[]any{1, "x"}, []any{1, "x"}, true},
		{[]any{1}, []any{2}, false},
		{[]any{[]byte("ab")}, []any{[]byte("ab")}, true},
		{[]any{[]byte("ab")}, []any{[]byte("ac")}, false},
		{[]any{[]any{1, 2}}, []any{[]any{1, 2}}, true},
		{[]any{[]any{1, 2}}, []any{[]any{1, 3}}, false},
		{[]any{1}, []any{1, 2}, false},
		{[]any{[]byte("a")}, []any{"a"}, false},
	}
	for i, tt := range tests {
		if got := ArgsEqual(tt.a, tt.b); got != tt.want {
			t.Errorf("case %d: ArgsEqual = %v, want %v", i, got, tt.want)
		}
	}
}

func TestLogSizeBytes(t *testing.T) {
	l := v1Log()
	if l.SizeBytes() == 0 {
		t.Error("SizeBytes = 0")
	}
}

// Property: replaying a log against an identical syscall sequence never
// conflicts and consumes every immutable record, regardless of the
// sequence shape.
func TestQuickReplayIdentityNeverConflicts(t *testing.T) {
	f := func(shape []byte) bool {
		if len(shape) > 64 {
			shape = shape[:64]
		}
		l := NewLog()
		type call struct {
			stack []string
			name  string
			args  []any
		}
		var calls []call
		for i, b := range shape {
			stack := []string{"main", fmt.Sprintf("init_%d", b%8)}
			name := []string{"socket", "bind", "open", "fork"}[b%4]
			args := []any{int(b), fmt.Sprintf("arg%d", i%3)}
			calls = append(calls, call{stack, name, args})
			l.Append(rec(stack, name, args, i))
		}
		l.Seal()
		rp := NewReplayer(l, StrategyStackID)
		for _, c := range calls {
			if _, out := rp.Match(StackID(c.stack), c.stack, c.name, c.args); out != Replayed {
				return false
			}
		}
		_, _, conflicted := rp.Stats()
		return conflicted == 0 && len(rp.Leftover()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
