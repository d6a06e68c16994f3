// Package faultinject is the deterministic fault-injection harness for the
// resilience layer (internal/budget): it drives cancellation, budget
// exhaustion and worker panics into named pipeline sites through the
// budget.Budget.Hook seam and lets tests prove that every engine returns a
// typed error — never a hang, crash or goroutine leak.
//
// An injection is a Plan: fire one Mode at the Nth budget check whose site
// label matches Site. Plans are pure data, so a test sweep over (Mode, N,
// Site) triples is a reproducible schedule — the same triple always injects
// at the same point of the same engine, regardless of worker count (engines
// check every iteration when a hook is installed; see budget.Hooked).
package faultinject

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/budget"
)

// Mode selects what the injection does at the chosen check.
type Mode int

const (
	// Cancel cancels the budget's context; the engine's next context poll
	// reports budget.ErrCanceled. This exercises the real cancellation path
	// rather than short-circuiting through the hook's return value.
	Cancel Mode = iota
	// Limit returns a typed budget.ErrLimit from the check, as if a
	// resource ceiling tripped at that exact point.
	Limit
	// Panic panics in the goroutine running the check. Inject it only at
	// sites that recover into budget.ErrInternal — the worker pools
	// ("encoding.eval", "logic.worker") and, under core.Synthesize, the
	// explicit state-graph build ("reach.explore"); elsewhere the panic
	// propagates to the caller by design.
	Panic
)

func (m Mode) String() string {
	switch m {
	case Cancel:
		return "cancel"
	case Limit:
		return "limit"
	default:
		return "panic"
	}
}

// Plan is one deterministic injection: fire Mode at the Nth (1-based)
// budget check whose site matches Site ("" matches every site).
type Plan struct {
	Mode Mode
	N    int
	Site string
}

func (p Plan) String() string {
	site := p.Site
	if site == "" {
		site = "*"
	}
	return fmt.Sprintf("%v@%s#%d", p.Mode, site, p.N)
}

// Injector counts matching budget checks and fires its Plan once. It is
// safe for concurrent use by worker pools; exactly one check observes the
// injection (panic or limit error), and Cancel mode is visible to every
// goroutine through the shared context.
type Injector struct {
	plan   Plan
	cancel context.CancelFunc
	calls  atomic.Int64
	fired  atomic.Bool
}

// New builds an injector and a budget wired to it. The budget carries a
// cancelable context (so Cancel mode works) and the injector as its Hook.
func New(plan Plan) (*Injector, *budget.Budget) {
	ctx, cancel := context.WithCancel(context.Background())
	in := &Injector{plan: plan, cancel: cancel}
	return in, &budget.Budget{Ctx: ctx, Hook: in.hook}
}

// Fired reports whether the injection point was reached. A plan whose Nth
// matching check never happens (the engine finished first) leaves the run
// unperturbed; tests accept success in that case.
func (in *Injector) Fired() bool { return in.fired.Load() }

// Calls returns how many matching checks were observed — useful for sizing
// N sweeps against a given workload.
func (in *Injector) Calls() int { return int(in.calls.Load()) }

// Release cancels the injector's context unconditionally, releasing any
// resources regardless of whether the plan fired. Call it when the test is
// done with the budget.
func (in *Injector) Release() { in.cancel() }

func (in *Injector) hook(site string) error {
	if in.plan.Site != "" && site != in.plan.Site {
		return nil
	}
	if in.calls.Add(1) != int64(in.plan.N) {
		return nil
	}
	in.fired.Store(true)
	switch in.plan.Mode {
	case Cancel:
		in.cancel()
		return nil // the budget's own context poll reports ErrCanceled
	case Limit:
		return budget.ErrLimit{Resource: budget.States, Limit: in.plan.N, Used: in.plan.N}
	default:
		panic(fmt.Sprintf("faultinject: injected panic at %s (check %d)", site, in.plan.N))
	}
}
