// Package replaylog implements MCR's startup log: the record of every
// system call a program version performed during startup, and the
// conservative replay engine mutable reinitialization uses to run the new
// version's startup code against that record (§5).
//
// Matching is deliberately conservative: a syscall observed at replay time
// is replayed only on a perfect match — same version-agnostic call-stack
// ID, same call, deeply-equal arguments — with per-call-stack-ID ordering.
// Anything else is either executed live (a call stack the old version
// never recorded: new or changed startup code runs for real) or flagged as
// a conflict (a recorded call stack whose next operation disagrees),
// which aborts the update and triggers rollback unless a user
// reinitialization handler resolves it.
package replaylog

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// StackID computes the version-agnostic call-stack ID of §5: a hash of all
// active function names on the calling thread's stack. Function renames
// change the ID (a tolerated source of conservative conflicts); adding,
// deleting or reordering *other* call sites does not. The hash is
// FNV-1a-64 over each name's bytes and a zero byte after each, folded
// inline with no hasher and no per-name []byte conversion, so it does not
// allocate. It is a prefix hash: a thread that keeps the ID of each frame
// (PushStackID) has the ID of its stack without hashing it again.
func StackID(stack []string) uint64 {
	h := EmptyStackID
	for _, fn := range stack {
		h = PushStackID(h, fn)
	}
	return h
}

// EmptyStackID is the StackID of the empty stack.
const EmptyStackID uint64 = 14695981039346656037

// PushStackID returns the StackID of a stack whose ID is id with fn called
// on top of it.
func PushStackID(id uint64, fn string) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < len(fn); i++ {
		id ^= uint64(fn[i])
		id *= prime64
	}
	return id * prime64 // the zero separator: xor with 0 leaves id unchanged
}

// Record is one logged startup operation.
type Record struct {
	Seq     int      // global order of recording
	StackID uint64   // call-stack ID at the call site
	Stack   []string // symbolic stack, for conflict diagnostics
	Call    string   // syscall name, e.g. "socket", "bind", "fork"
	Args    []any    // deep-copied arguments
	Result  any      // recorded result (fd number, pid, address, ...)
	// Immutable marks operations on immutable state objects (fds, pids,
	// fixed memory): only these are replayed; everything else in the new
	// version runs live. The flag is computed at update time by scanning
	// the log against the old version's live object sets (an operation on
	// an fd that was closed again before the update is *not* immutable:
	// the new version re-executes it live).
	Immutable bool
	// FDs are the fd numbers this operation created or manipulated, and
	// Pid the process/thread id it created — the immutable-object
	// identities the update-time marking pass needs.
	FDs []int
	Pid int
}

// MarkImmutable recomputes the Immutable flag of every record using the
// given predicate (the update-time marking pass).
func (l *Log) MarkImmutable(pred func(*Record) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.records {
		l.records[i].Immutable = pred(&l.records[i])
	}
}

func (r Record) String() string {
	return fmt.Sprintf("#%d %s(%v)=%v @%s", r.Seq, r.Call, r.Args, r.Result,
		strings.Join(r.Stack, ">"))
}

// Log is the startup log of one process. It is written by a Recorder
// during v1 startup and read by a Replayer during v2 startup.
type Log struct {
	mu      sync.Mutex
	records []Record
	sealed  bool
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Append records one operation. Appending to a sealed log panics: sealing
// happens when startup completes, and later syscalls must never be
// recorded (they belong to normal execution, not startup).
func (l *Log) Append(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sealed {
		panic("replaylog: append to sealed log")
	}
	r.Seq = len(l.records)
	l.records = append(l.records, r)
}

// Seal marks the end of startup recording.
func (l *Log) Seal() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sealed = true
}

// Records returns a copy of all records in order.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// SizeBytes estimates the in-memory footprint of the log (memory-usage
// experiment input).
func (l *Log) SizeBytes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total uint64
	for _, r := range l.records {
		total += 64 // fixed record overhead
		for _, s := range r.Stack {
			total += uint64(len(s))
		}
		for _, a := range r.Args {
			if b, ok := a.([]byte); ok {
				total += uint64(len(b))
			} else if s, ok := a.(string); ok {
				total += uint64(len(s))
			} else {
				total += 8
			}
		}
	}
	return total
}

// MatchOutcome classifies the replay decision for one observed syscall.
type MatchOutcome int

// Outcomes.
const (
	// Replayed: perfect match; do not execute, use the recorded result.
	Replayed MatchOutcome = iota
	// Live: no record for this call stack; execute the operation live.
	Live
	// Conflicted: a record exists for this call stack but disagrees
	// (different call or arguments). The update must roll back unless a
	// user handler resolves it.
	Conflicted
)

var outcomeNames = [...]string{"replayed", "live", "conflicted"}

func (o MatchOutcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Conflict describes one matching failure, carrying enough context for
// the user to write the missing annotation.
type Conflict struct {
	Reason   string
	Observed Record  // what v2's startup code did
	Expected *Record // what the log said (nil for leftover-record conflicts)
}

func (c Conflict) String() string {
	if c.Expected != nil {
		return fmt.Sprintf("replay conflict: %s: observed %s, expected %s",
			c.Reason, c.Observed, *c.Expected)
	}
	return fmt.Sprintf("replay conflict: %s: %s", c.Reason, c.Observed)
}

// Strategy selects the matching algorithm. StrategyStackID is MCR's
// call-stack-ID matching; StrategyGlobalOrder is the stricter
// global-ordering baseline the paper compares against ("more robust to
// addition/deletion/reordering ... than alternative strategies based on
// global or partial orderings"), kept for the ablation benchmark.
type Strategy int

// Strategies.
const (
	StrategyStackID Strategy = iota
	StrategyGlobalOrder
)

// Replayer matches v2 startup syscalls against a v1 log.
type Replayer struct {
	mu        sync.Mutex
	strategy  Strategy
	queues    map[uint64][]*Record // per-stack-ID FIFO (StrategyStackID)
	global    []*Record            // global FIFO (StrategyGlobalOrder)
	conflicts []Conflict
	replayed  int
	live      int
}

// NewReplayer builds a replayer over log using the given strategy. All
// records enter the matching queues: immutable records are replay
// candidates; mutable records act as skippable "live markers" — the new
// version may re-execute, reorder or omit them freely. Only immutable
// records can produce conflicts or leftovers.
func NewReplayer(log *Log, strategy Strategy) *Replayer {
	rp := &Replayer{
		strategy: strategy,
		queues:   make(map[uint64][]*Record),
	}
	recs := log.Records()
	for i := range recs {
		r := &recs[i]
		rp.queues[r.StackID] = append(rp.queues[r.StackID], r)
		rp.global = append(rp.global, r)
	}
	return rp
}

// Match decides the outcome for one observed syscall. On Replayed the
// returned record carries the result to substitute. The conservative
// matching rules (§5):
//
//   - unknown call stack: new or changed startup code -> Live;
//   - head matches call+args: Replayed if immutable, Live if mutable;
//   - mutable heads that do not match are dropped (omitted live code);
//   - immutable head, same call, different arguments -> Conflicted;
//   - immutable head, different call -> Live without consuming (inserted
//     operation; a genuinely omitted immutable operation surfaces as a
//     leftover conflict when startup completes).
func (rp *Replayer) Match(stackID uint64, stack []string, call string, args []any) (*Record, MatchOutcome) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	observed := Record{StackID: stackID, Stack: stack, Call: call, Args: args}
	if rp.strategy == StrategyGlobalOrder {
		return rp.matchGlobalLocked(stackID, observed, call, args)
	}
	q := rp.queues[stackID]
	for len(q) > 0 && !q[0].Immutable &&
		!(q[0].Call == call && ArgsEqual(q[0].Args, args)) {
		q = q[1:]
	}
	rp.queues[stackID] = q
	if len(q) == 0 {
		rp.live++
		return nil, Live
	}
	head := q[0]
	if head.Call == call && ArgsEqual(head.Args, args) {
		rp.queues[stackID] = q[1:]
		if head.Immutable {
			rp.replayed++
			return head, Replayed
		}
		rp.live++
		return head, Live
	}
	if head.Call == call {
		rp.conflicts = append(rp.conflicts, Conflict{
			Reason: "argument mismatch", Observed: observed, Expected: head,
		})
		return nil, Conflicted
	}
	// Different call against an immutable head: an operation the update
	// inserted; run it live and keep waiting for the recorded one.
	rp.live++
	return nil, Live
}

func (rp *Replayer) matchGlobalLocked(stackID uint64, observed Record, call string, args []any) (*Record, MatchOutcome) {
	q := rp.global
	for len(q) > 0 && !q[0].Immutable &&
		!(q[0].StackID == stackID && q[0].Call == call && ArgsEqual(q[0].Args, args)) {
		q = q[1:]
	}
	rp.global = q
	if len(q) == 0 {
		rp.live++
		return nil, Live
	}
	head := q[0]
	if head.StackID == stackID && head.Call == call && ArgsEqual(head.Args, args) {
		rp.global = q[1:]
		if head.Immutable {
			rp.replayed++
			return head, Replayed
		}
		rp.live++
		return head, Live
	}
	// The global-ordering baseline is strict: any immutable-head mismatch
	// is a conflict (this is why the paper prefers call-stack IDs).
	rp.conflicts = append(rp.conflicts, Conflict{
		Reason: "global-order head mismatch", Observed: observed, Expected: head,
	})
	return nil, Conflicted
}

// Leftover returns the immutable records never consumed by replay. A
// nonempty leftover set after startup is itself a conflict: "if the
// startup code in the new version is updated to omit a previously recorded
// syscall, mutable reinitialization immediately flags a conflict" (§5).
func (rp *Replayer) Leftover() []Record {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var out []Record
	switch rp.strategy {
	case StrategyGlobalOrder:
		for _, r := range rp.global {
			if r.Immutable {
				out = append(out, *r)
			}
		}
	default:
		for _, q := range rp.queues {
			for _, r := range q {
				if r.Immutable {
					out = append(out, *r)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Conflicts returns all accumulated conflicts.
func (rp *Replayer) Conflicts() []Conflict {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	out := make([]Conflict, len(rp.conflicts))
	copy(out, rp.conflicts)
	return out
}

// Stats returns (replayed, live, conflicted) counts.
func (rp *Replayer) Stats() (replayed, live, conflicted int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.replayed, rp.live, len(rp.conflicts)
}

// ArgsEqual performs the deep argument comparison of §5 ("MCR follows
// pointers and performs a deep comparison of the arguments"): primitives
// compare by value, byte slices by content, nested slices element-wise.
func ArgsEqual(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valueEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func valueEqual(a, b any) bool {
	switch av := a.(type) {
	case []byte:
		bv, ok := b.([]byte)
		return ok && bytes.Equal(av, bv)
	case []any:
		bv, ok := b.([]any)
		return ok && ArgsEqual(av, bv)
	default:
		return a == b
	}
}
