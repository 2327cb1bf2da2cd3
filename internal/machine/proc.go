package machine

import "fmt"

// PID identifies a simulated process on one board. PIDs are engine-level
// identities; kernels layer their own notions (endpoints, ac_ids, Unix pids)
// on top.
type PID int32

// NoPID is the zero PID; valid processes start at 1.
const NoPID PID = 0

// ProcState is the engine-level lifecycle state of a process.
type ProcState int

// Process lifecycle states.
const (
	// StateNew means the process exists but has never been scheduled.
	StateNew ProcState = iota + 1
	// StateReady means the process has a pending trap reply and is waiting
	// for CPU.
	StateReady
	// StateRunning means the process is executing user code; the engine is
	// waiting for its next trap.
	StateRunning
	// StateBlocked means the kernel has parked the process; it owns no CPU
	// and has no pending reply.
	StateBlocked
	// StateDead means the process has exited, crashed, or been killed.
	StateDead
)

// String returns the conventional short name of the state.
func (s ProcState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// killSentinel is the panic Context.Trap raises once a process has been
// stopped, to unwind its body. The coroutine wrapper recognises it and treats
// it as a kill rather than a crash.
type killSentinel struct{}

// ExitInfo describes how a process left the system.
type ExitInfo struct {
	// Crashed is true when the body panicked (a fault, in OS terms).
	Crashed bool
	// Killed is true when the process was destroyed by the kernel.
	Killed bool
	// PanicValue holds the recovered panic value when Crashed is true.
	PanicValue any
}

// Proc is the engine-level process control block.
type Proc struct {
	pid   PID
	name  string
	prio  int
	state ProcState

	engine *Engine
	body   func(ctx *Context)

	// next resumes the body's coroutine until its next trap (ok) or until
	// the body returns or crashes (!ok); stop unwinds a suspended coroutine.
	// yield is the coroutine's side of next: it reports false once stop has
	// been called.
	next  func() (any, bool)
	stop  func()
	yield func(any) bool

	// pendingReply is delivered at the next dispatch while the proc is Ready.
	pendingReply any

	// exit records how the body ended when it returned or crashed.
	exit ExitInfo
}

// PID returns the process identifier.
func (p *Proc) PID() PID { return p.pid }

// Name returns the human-readable process name.
func (p *Proc) Name() string { return p.name }

// Priority returns the scheduling priority (lower is more urgent).
func (p *Proc) Priority() int { return p.prio }

// State returns the engine-level lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Context is the view of the board a process body receives. All interaction
// with the outside world goes through Trap, which hands control to the
// kernel.
type Context struct {
	proc *Proc
}

// PID returns the identity of the calling process.
func (c *Context) PID() PID { return c.proc.pid }

// Name returns the name of the calling process.
func (c *Context) Name() string { return c.proc.name }

// Now returns the current virtual time. Reading the clock is free; it does
// not trap.
func (c *Context) Now() Time { return c.proc.engine.clock.Now() }

// Trap synchronously invokes the kernel with an arbitrary request and returns
// the kernel's reply. The process yields the virtual CPU until the kernel
// schedules it again; from the process's perspective the call simply blocks.
//
// If the process is killed while parked inside Trap — or kills itself via the
// kernel — the call never returns: the body unwinds via an internal panic
// that the engine recovers. Deferred cleanup that traps during that unwinding
// re-panics immediately — a dead process gets no more system calls.
func (c *Context) Trap(req any) any {
	p := c.proc
	if !p.yield(req) {
		panic(killSentinel{})
	}
	reply := p.pendingReply
	p.pendingReply = nil
	return reply
}

// run is the body's coroutine. It records a crash and absorbs the kill
// sentinel, so no panic reaches Engine.Run through next or stop.
func (p *Proc) run(yield func(any) bool) {
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(killSentinel); !killed {
				p.exit = ExitInfo{Crashed: true, PanicValue: r}
			}
		}
	}()
	p.body(&Context{proc: p})
}
