package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/prop"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stg"
	"repro/internal/ts"
)

// Request is the JSON body of the POST /v1/parse, /v1/analyze,
// /v1/synthesize and /v1/verify endpoints.
type Request struct {
	// Spec is the specification in astg .g format.
	Spec string `json:"spec"`
	// Impl is the implementation in .eqn format (verify only). Optional
	// when Properties is given.
	Impl string `json:"impl,omitempty"`
	// Properties is a property file (`prop name : formula` lines, see
	// internal/prop) checked against the spec (verify only).
	Properties string `json:"properties,omitempty"`
	// Options tune the run; the zero value is a full default run.
	Options ReqOptions `json:"options"`
	// Async forces job-handle (true) or inline (false) execution.
	// Absent, the server decides by specification size (Config.AsyncThreshold).
	Async *bool `json:"async,omitempty"`
}

// ReqOptions is the wire form of the engine options. Only Style, MaxFanIn
// and SkipVerify shape the result; the rest bound or parallelize the run
// and are therefore excluded from the cache key (results are bit-identical
// at any worker count, and only complete results are cached).
type ReqOptions struct {
	Style      string `json:"style,omitempty"`       // complex (default), gc, rs
	PropEngine string `json:"prop_engine,omitempty"` // auto (default), explicit, symbolic
	MaxFanIn   int    `json:"max_fanin,omitempty"`
	SkipVerify bool   `json:"skip_verify,omitempty"`
	Fallback   bool   `json:"fallback,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	TimeoutMS  int    `json:"timeout_ms,omitempty"`
	MaxStates  int    `json:"max_states,omitempty"`
	MaxNodes   int    `json:"max_nodes,omitempty"`
	MaxEvents  int    `json:"max_events,omitempty"`
}

func (o ReqOptions) propEngine() (prop.Engine, error) {
	switch o.PropEngine {
	case "", "auto":
		return prop.EngineAuto, nil
	case "explicit", "symbolic":
		return prop.Engine(o.PropEngine), nil
	}
	return "", fmt.Errorf("unknown prop_engine %q", o.PropEngine)
}

func (o ReqOptions) style() (logic.Style, error) {
	switch o.Style {
	case "", "complex":
		return logic.ComplexGate, nil
	case "gc":
		return logic.GeneralizedC, nil
	case "rs":
		return logic.StandardC, nil
	}
	return 0, fmt.Errorf("unknown style %q", o.Style)
}

// budget builds the per-job budget; ctx carries cancellation (DELETE
// /v1/jobs/{id}, job timeout, shutdown past the drain deadline).
func (o ReqOptions) budget(ctx context.Context) *budget.Budget {
	return &budget.Budget{
		Ctx:       ctx,
		MaxStates: o.MaxStates,
		MaxNodes:  o.MaxNodes,
		MaxEvents: o.MaxEvents,
	}
}

// Response is the JSON body every endpoint returns. Result is the
// cacheable payload: on a cache hit it is replayed byte-identically from
// the store, so anything run-dependent (timings, job ids, metrics) lives
// outside it — per-request metrics fold into the server registry exposed
// at /metrics instead.
type Response struct {
	JobID  string `json:"job_id,omitempty"`
	Status string `json:"status"` // queued, running, done, failed, canceled, interrupted
	// TraceID is the 128-bit request trace id (hex): the incoming W3C
	// traceparent trace id when one was supplied, minted otherwise. Job
	// responses carry the trace of the request that created the job —
	// singleflight-attached and replayed-after-recovery requests included.
	TraceID string `json:"trace_id,omitempty"`
	Cached  bool   `json:"cached,omitempty"`
	// Key is the content address: SHA-256 over the canonical .g form plus
	// the canonical options encoding.
	Key       string          `json:"key,omitempty"`
	Error     string          `json:"error,omitempty"`
	ErrorKind string          `json:"error_kind,omitempty"` // budget, canceled, internal, spec, overload, interrupted
	Attempts  []string        `json:"attempts,omitempty"`   // degradation-ladder trace on budget exits
	Result    json.RawMessage `json:"result,omitempty"`
	// RetryAfterMS mirrors the Retry-After header on overload (503)
	// rejections, unquantized.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	code int // HTTP status, not serialized
}

// Result payloads per kind. All fields are deterministic functions of the
// canonical spec + result-shaping options, which is what makes them safe
// to cache under the content address.

// ParseResult is the /v1/parse payload.
type ParseResult struct {
	Kind        string         `json:"kind"`
	Name        string         `json:"name"`
	Hash        string         `json:"hash"`
	Signals     map[string]int `json:"signals"` // count per kind: input, output, internal, dummy
	Transitions int            `json:"transitions"`
	Places      int            `json:"places"`
	Canonical   string         `json:"canonical"` // canonical .g rendering
}

// Properties is the wire form of ts.Implementability.
type Properties struct {
	Consistent   bool `json:"consistent"`
	USC          bool `json:"usc"`
	CSC          bool `json:"csc"`
	Persistent   bool `json:"persistent"`
	DeadlockFree bool `json:"deadlock_free"`
	OK           bool `json:"ok"`
}

func wireProps(p ts.Implementability) Properties {
	return Properties{
		Consistent: p.Consistent, USC: p.USC, CSC: p.CSC,
		Persistent: p.Persistent, DeadlockFree: p.DeadlockFree, OK: p.OK(),
	}
}

// AnalyzeResult is the /v1/analyze payload (implementability suite on the
// dummy-contracted state graph, mirroring the synthesis front end).
type AnalyzeResult struct {
	Kind       string     `json:"kind"`
	Name       string     `json:"name"`
	Hash       string     `json:"hash"`
	States     int        `json:"states"`
	Arcs       int        `json:"arcs"`
	Deadlocks  int        `json:"deadlocks"`
	Properties Properties `json:"properties"`
}

// Verification is the wire form of sim.Result.
type Verification struct {
	OK         bool     `json:"ok"`
	States     int      `json:"states"`
	Violations []string `json:"violations,omitempty"`
}

func wireVerification(r *sim.Result) *Verification {
	if r == nil {
		return nil
	}
	v := &Verification{OK: r.OK(), States: r.States}
	for _, viol := range r.Violations {
		v.Violations = append(v.Violations, viol.String())
	}
	return v
}

// SynthesizeResult is the /v1/synthesize payload.
type SynthesizeResult struct {
	Kind         string        `json:"kind"`
	Name         string        `json:"name"`
	Hash         string        `json:"hash"`
	States       int           `json:"states"`
	Properties   Properties    `json:"properties"`
	CSC          string        `json:"csc,omitempty"`
	Equations    string        `json:"equations,omitempty"`
	Gates        int           `json:"gates"`
	Literals     int           `json:"literals"`
	Spec         string        `json:"spec,omitempty"` // final .g after state-signal insertion
	Verification *Verification `json:"verification,omitempty"`
	Degraded     bool          `json:"degraded,omitempty"`
	Attempts     []string      `json:"attempts,omitempty"` // degraded runs only (timings are run-dependent)
}

// PropertyVerdict is the wire form of one prop.Verdict.
type PropertyVerdict struct {
	Name    string `json:"name"`
	Formula string `json:"formula"` // canonical rendering
	Status  string `json:"status"`  // holds, VIOLATED, unknown
	// Trace is the counterexample/witness firing sequence; Waveform its
	// ASCII timing diagram. Both empty when no trace applies.
	Trace    string `json:"trace,omitempty"`
	Waveform string `json:"waveform,omitempty"`
}

// VerifyResult is the /v1/verify payload. Verification is present when the
// request carried an impl netlist, Properties when it carried a property
// file; a request may ask for both.
type VerifyResult struct {
	Kind         string            `json:"kind"`
	Name         string            `json:"name"`
	Hash         string            `json:"hash"`
	ImplHash     string            `json:"impl_hash,omitempty"`
	Verification *Verification     `json:"verification,omitempty"`
	Properties   []PropertyVerdict `json:"properties,omitempty"`
	PropEngine   string            `json:"prop_engine,omitempty"`
	PropStates   string            `json:"prop_states,omitempty"`
}

// job is one queued engine run. The final Response is written exactly once
// under mu before done is closed; sync waiters block on done, pollers read
// snapshot() while it runs.
type job struct {
	id    string
	kind  string
	key   string // content address; "" = not cacheable
	cost  int64  // admission weight held until finish
	trace string // request trace id, stable across journal replay
	req   *Request
	g     *stg.STG
	nl    *logic.Netlist  // verify only
	props []prop.Property // verify only

	events *broadcaster // SSE fan-out; always non-nil on a served job

	retried bool // the crash-retry policy fired (one retry max)

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	status string
	resp   *Response
	runReg *obs.Registry // current attempt's registry while running
}

func (j *job) setStatus(s string) {
	j.mu.Lock()
	j.status = s
	j.mu.Unlock()
}

// setRegistry publishes the running attempt's registry so the trace endpoint
// can snapshot a live job; registry reads it back (nil once finished).
func (j *job) setRegistry(reg *obs.Registry) {
	j.mu.Lock()
	j.runReg = reg
	j.mu.Unlock()
}

func (j *job) registry() *obs.Registry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runReg
}

// finish publishes the final response and wakes every waiter.
func (j *job) finish(resp *Response) {
	resp.JobID = j.id
	resp.Key = j.key
	resp.TraceID = j.trace
	j.mu.Lock()
	j.status = resp.Status
	j.resp = resp
	j.runReg = nil // the retained snapshot (trace ring) owns the tree now
	j.mu.Unlock()
	j.cancel() // release the context's timer; the run is over
	close(j.done)
}

// snapshot returns the job's current wire state: the final response once
// finished, a bare status report while queued or running.
func (j *job) snapshot() *Response {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.resp != nil {
		return j.resp
	}
	return &Response{
		JobID: j.id, Status: j.status, Key: j.key, TraceID: j.trace,
		code: http.StatusOK,
	}
}

// worker drains the job queue until it is closed by Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
		s.queueDepth.Set(s.depth.Add(-1))
	}
}

// runJob executes one job under its budget with panic containment: a
// panicking engine fails the job — surfaced as a typed *budget.ErrInternal
// with the recovered stack — never the daemon. An internal error gets one
// retry with the degradation ladder forced (symbolic → stubborn-reduced →
// capped explicit), so a single bad engine path doesn't fail work a cheaper
// rung could finish. The start record hits the journal first: a crash
// between start and finish is reported as "interrupted" after restart.
func (s *Server) runJob(j *job) {
	start := time.Now()
	j.setStatus("running")
	j.events.publish("status", j.snapshot())
	if j.ctx.Err() != nil {
		// Canceled while queued: don't charge an engine run.
		err := fmt.Errorf("serve: canceled while queued: %w", budget.ErrCanceled)
		s.finishJob(j, s.classify(j, nil, nil, err), start)
		return
	}
	if err := s.journal.append(&journalRecord{T: "start", Job: j.id}); err != nil {
		s.jobLog(j, slog.LevelError, "journal start failed", err)
	}
	faultinject.Crash("serve.job.run") // chaos kill site: die mid-job

	raw, rep, err := s.attempt(j, false)
	var retryTrace []string
	var ie *budget.ErrInternal
	if err != nil && errors.As(err, &ie) && j.ctx.Err() == nil && !j.retried {
		// Crash-retry policy: one retry per job, ladder forced.
		j.retried = true
		s.jobsRetried.Inc()
		retryTrace = append(attemptStrings(rep),
			"retried with fallback ladder after: "+err.Error())
		if jerr := s.journal.append(&journalRecord{
			T: "retry", Job: j.id, Error: err.Error(), Attempts: attemptStrings(rep),
		}); jerr != nil {
			s.jobLog(j, slog.LevelError, "journal retry failed", jerr)
		}
		raw, rep, err = s.attempt(j, true)
	}

	resp := s.classify(j, raw, rep, err)
	if len(retryTrace) > 0 {
		resp.Attempts = append(retryTrace, resp.Attempts...)
	}
	s.finishJob(j, resp, start)
}

// attempt is one panic-contained engine run. Each attempt records into its
// own registry (flow → phase → engine spans plus engine counters); scalar
// instruments are folded into the long-running server registry afterwards
// (keeping the /metrics aggregate span-free per the obs aggregation
// contract), while the span tree is retained in the trace ring behind
// GET /v1/jobs/{id}/trace and streamed live to SSE subscribers.
func (s *Server) attempt(j *job, forceFallback bool) (raw json.RawMessage, rep *core.Report, err error) {
	reg := obs.NewRegistry()
	reg.SetStream(func(ev obs.StreamEvent) { j.events.publish("span", ev) })
	j.setRegistry(reg)
	s.engineRuns.Inc()
	func() {
		defer cli.Recover(&err)
		raw, rep, err = s.execute(j, reg, forceFallback)
	}()
	s.reg.MergeRetain(reg.Snapshot(), func(snap *obs.Snapshot) {
		s.traces.Put(j.id, j.trace, snap)
	})
	return raw, rep, err
}

// attemptStrings renders a report's attempt trace for the wire and journal.
func attemptStrings(rep *core.Report) []string {
	if rep == nil {
		return nil
	}
	out := make([]string, 0, len(rep.Attempts))
	for _, a := range rep.Attempts {
		out = append(out, a.String())
	}
	return out
}

// finishJob stores a successful result in both cache tiers, journals the
// terminal record, returns the job's admission cost and publishes the
// response. Order matters: the disk write and the finish record land before
// any waiter observes the terminal status, so a crash after publication can
// neither lose the cached bytes nor resurrect the job.
func (s *Server) finishJob(j *job, resp *Response, start time.Time) {
	if resp.Status == "done" && !resp.Degraded() && j.key != "" {
		s.cache.put(j.key, resp.Result)
		s.disk.put(j.key, resp.Result)
		s.syncCacheGauges()
	}
	if err := s.journal.append(&journalRecord{
		T: "finish", Job: j.id, Status: resp.Status,
		Error: resp.Error, Attempts: resp.Attempts,
	}); err != nil {
		s.jobLog(j, slog.LevelError, "journal finish failed", err)
	}
	s.gate.release(j.cost)
	switch resp.Status {
	case "done":
		s.jobsDone.Inc()
	case "canceled":
		s.jobsCanceled.Inc()
	default:
		s.jobsFailed.Inc()
	}
	s.latency.Observe(time.Since(start).Microseconds())
	s.mu.Lock()
	if j.key != "" && s.flight[j.key] == j {
		delete(s.flight, j.key)
	}
	s.mu.Unlock()
	j.finish(resp)
	// Terminal SSE event after finish: the response snapshot subscribers see
	// is the one pollers see, and every engine goroutine has already joined,
	// so span records strictly precede the "done" record.
	j.events.finish("done", resp)
	s.jobLog(j, slog.LevelInfo, "job finished", nil,
		slog.String("status", resp.Status),
		slog.Duration("dur", time.Since(start)))
}

// jobLog emits one structured record about a job, stamped with the job id,
// kind and trace id (plus an error attr when err is non-nil).
func (s *Server) jobLog(j *job, level slog.Level, msg string, err error, attrs ...slog.Attr) {
	base := []slog.Attr{
		slog.String("job_id", j.id),
		slog.String("kind", j.kind),
		slog.String("trace_id", j.trace),
	}
	if err != nil {
		base = append(base, slog.String("err", err.Error()))
	}
	s.log.LogAttrs(context.Background(), level, msg, append(base, attrs...)...)
}

// Degraded reports whether the response is a fallback-analysis result
// (complete, but budget-shaped — not cacheable under the content address).
func (r *Response) Degraded() bool {
	if len(r.Result) == 0 {
		return false
	}
	var probe struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(r.Result, &probe); err != nil {
		return false
	}
	return probe.Degraded
}

// classify maps an engine outcome onto the wire taxonomy and HTTP status:
// done → 200, budget limit → 422 with the partial attempts, cancellation →
// 409, recovered panic → 500, spec-semantic failure → 422.
func (s *Server) classify(j *job, raw json.RawMessage, rep *core.Report, err error) *Response {
	if err == nil {
		return &Response{Status: "done", Result: raw, code: http.StatusOK}
	}
	resp := &Response{Status: "failed", Error: err.Error()}
	if rep != nil {
		for _, a := range rep.Attempts {
			resp.Attempts = append(resp.Attempts, a.String())
		}
	}
	var le budget.ErrLimit
	var ie *budget.ErrInternal
	switch {
	case errors.Is(err, budget.ErrCanceled):
		resp.Status = "canceled"
		resp.ErrorKind = "canceled"
		resp.code = http.StatusConflict
	case errors.As(err, &le):
		resp.ErrorKind = "budget"
		resp.code = http.StatusUnprocessableEntity
	case errors.As(err, &ie):
		resp.ErrorKind = "internal"
		resp.code = http.StatusInternalServerError
	default:
		resp.ErrorKind = "spec"
		resp.code = http.StatusUnprocessableEntity
	}
	return resp
}

// execute runs the job's engine under its budget and renders the result
// payload. The returned *core.Report carries partial attempts on budget
// exits (synthesize only). forceFallback — set by the crash-retry policy —
// overrides the request's fallback switch so the retry walks the ladder.
func (s *Server) execute(j *job, reg *obs.Registry, forceFallback bool) (json.RawMessage, *core.Report, error) {
	bgt := j.req.Options.budget(j.ctx)
	bgt.Hook = s.testBudgetHook
	hash, err := j.g.CanonicalHash()
	if err != nil {
		return nil, nil, err
	}
	switch j.kind {
	case "analyze":
		res, err := s.analyze(j.g, hash, bgt, reg)
		if err != nil {
			return nil, nil, err
		}
		return marshalResult(res)
	case "synthesize":
		style, err := j.req.Options.style()
		if err != nil {
			return nil, nil, err
		}
		rep, err := core.Synthesize(j.g, core.Options{
			Style:      style,
			MaxFanIn:   j.req.Options.MaxFanIn,
			SkipVerify: j.req.Options.SkipVerify,
			Workers:    j.req.Options.Workers,
			Budget:     bgt,
			Fallback:   j.req.Options.Fallback || forceFallback,
			Obs:        reg,
		})
		if err != nil {
			return nil, rep, err
		}
		res := &SynthesizeResult{
			Kind:       "synthesize",
			Name:       j.g.Name(),
			Hash:       hash,
			Properties: wireProps(rep.Properties),
			CSC:        rep.CSC,
		}
		if rep.SG != nil {
			res.States = rep.SG.NumStates()
		}
		if rep.Netlist == nil {
			// Degraded run: analysis completed on a cheaper engine under
			// the budget; report the ladder instead of a netlist.
			res.Degraded = true
			for _, a := range rep.Attempts {
				res.Attempts = append(res.Attempts, a.String())
			}
		} else {
			// The verify-compatible .eqn rendering (with declarations), so
			// the payload round-trips straight into /v1/verify.
			var eqn strings.Builder
			if err := rep.Netlist.WriteEquations(&eqn); err != nil {
				return nil, rep, err
			}
			res.Equations = eqn.String()
			res.Gates = len(rep.Netlist.Gates)
			res.Literals = rep.Netlist.LiteralCount()
			res.Verification = wireVerification(rep.Verification)
			var spec strings.Builder
			if err := rep.Spec.WriteG(&spec); err != nil {
				return nil, rep, err
			}
			res.Spec = spec.String()
		}
		raw, _, err := marshalResult(res)
		return raw, rep, err
	case "verify":
		res, err := s.verify(j, hash, bgt, reg)
		if err != nil {
			return nil, nil, err
		}
		return marshalResult(res)
	}
	return nil, nil, fmt.Errorf("serve: unknown kind %q", j.kind)
}

// analyze mirrors the synthesis front end: build the state graph, contract
// dummy events, run the Section 2.1 implementability suite.
func (s *Server) analyze(g *stg.STG, hash string, bgt *budget.Budget, reg *obs.Registry) (*AnalyzeResult, error) {
	flow := reg.Root("flow:analyze")
	defer flow.End()
	span := flow.Child("phase:sg")
	sg, err := reach.BuildSG(g, reach.Options{Budget: bgt, Obs: span})
	span.End()
	if err != nil {
		return nil, err
	}
	if sg, err = ts.ContractDummies(sg); err != nil {
		return nil, err
	}
	return &AnalyzeResult{
		Kind:       "analyze",
		Name:       g.Name(),
		Hash:       hash,
		States:     sg.NumStates(),
		Arcs:       sg.NumArcs(),
		Deadlocks:  len(sg.Deadlocks()),
		Properties: wireProps(sg.CheckImplementability()),
	}, nil
}

// verify composes the parsed .eqn netlist with the specification mirror
// and/or checks the request's properties against the spec. A conformance
// failure or a violated property is a successful verification run whose
// result says "no" — violations are data, not an error; budget trips are
// errors and surface through the usual taxonomy.
func (s *Server) verify(j *job, hash string, bgt *budget.Budget, reg *obs.Registry) (*VerifyResult, error) {
	flow := reg.Root("flow:verify")
	defer flow.End()
	res := &VerifyResult{Kind: "verify", Name: j.g.Name(), Hash: hash}
	if j.nl != nil {
		span := flow.Child("phase:verify")
		vres, err := sim.Verify(j.nl, j.g, sim.Options{Budget: bgt, MaxViolations: 16})
		span.End()
		if err != nil {
			return nil, err
		}
		res.ImplHash = implHash(j.nl)
		res.Verification = wireVerification(vres)
	}
	if len(j.props) > 0 {
		eng, err := j.req.Options.propEngine()
		if err != nil {
			return nil, err
		}
		rep, err := prop.Check(j.g, j.props, prop.Options{
			Engine: eng,
			Budget: bgt,
			Obs:    flow,
		})
		if err != nil {
			return nil, err
		}
		res.PropEngine = rep.Engine
		res.PropStates = rep.States.String()
		for _, v := range rep.Verdicts {
			pv := PropertyVerdict{
				Name:    v.Property.Name,
				Formula: v.Property.F.String(),
				Status:  v.Status.String(),
			}
			if v.Trace != nil {
				pv.Trace = v.Trace.Events()
				pv.Waveform = v.Trace.Waveform()
			}
			res.Properties = append(res.Properties, pv)
		}
	}
	return res, nil
}

func marshalResult(v any) (json.RawMessage, *core.Report, error) {
	raw, err := json.Marshal(v)
	return raw, nil, err
}
