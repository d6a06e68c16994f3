package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/prop"
	"repro/internal/serve"
	"repro/internal/stg"
)

const (
	daemonSetups = 9  // daemon start + warm-up repetitions; setup_s is their median
	daemonBlock  = 20 // completed requests per block; flow_s is the median block time
	replayReps   = 3  // traced replays of the miss specs after the request loop
)

// Request classes of the daemon mix.
const (
	hit        = iota // /v1/synthesize on a warmed spec: a memory-cache read
	synthMiss         // /v1/synthesize on a renamed copy: engines, journal, disk cache
	verifyMiss        // /v1/verify with prop.Standard() on a renamed copy
	classes
)

var classNames = [classes]string{"hit", "synth-miss", "verify-miss"}

// deckShare is how many requests of each class a deck holds per hot spec:
// 7:2:1 is the 70/20/10 mix.
var deckShare = [classes]int{hit: 7, synthMiss: 2, verifyMiss: 1}

// deck deals a client's requests: every hot spec in every class in exact
// mix proportions, in a seeded shuffled order, dealt again when exhausted.
// Exact proportions keep the share of expensive misses the same in every
// run, so a seed changes the order but not the load.
type deck struct {
	rng   *rand.Rand
	cards [][2]int // (class, spec)
	next  int
}

func newDeck(rng *rand.Rand, specs int) *deck {
	d := &deck{rng: rng}
	for c, n := range deckShare {
		for k := 0; k < specs; k++ {
			for i := 0; i < n; i++ {
				d.cards = append(d.cards, [2]int{c, k})
			}
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) deal() (class, spec int) {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1][0], d.cards[d.next-1][1]
}

// daemon is an in-process durable serve.Server behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	dir    string
	served chan error
}

func startDaemon() (*daemon, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "daemon-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(),
		dir: dir, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the daemon down, waits for both, and
// removes the daemon's data directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	err = errors.Join(err, d.srv.Shutdown(ctx), os.RemoveAll(d.dir))
	return err
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

// post sends one blocking request and returns the decoded envelope; any
// answer but 200/done is an error.
func (c *client) post(path string, req *serve.Request) (*serve.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var out serve.Response
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK || out.Status != "done" {
		return nil, fmt.Errorf("%s: HTTP %d status %q: %s", path, resp.StatusCode, out.Status, out.Error)
	}
	return &out, nil
}

func (c *client) counters() (map[string]int64, error) {
	resp, err := c.hc.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	snap, err := obs.ParseSnapshot(data)
	if err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// noAsync makes every request block until its result is ready, whatever the
// daemon's async threshold, so the client times the whole request.
var noAsync = new(bool)

// standardProps is prop.Standard() in the property file syntax. Its
// properties are renamed because prop.Print keeps names such as
// "deadlock_free" that prop.Parse rejects as reserved words.
var standardProps = func() string {
	props := prop.Standard()
	for i := range props {
		props[i].Name = "std_" + props[i].Name
	}
	return prop.Print(props)
}()

func synthRequest(text string) *serve.Request { return &serve.Request{Spec: text, Async: noAsync} }

func verifyRequest(text string) *serve.Request {
	return &serve.Request{Spec: text, Properties: standardProps, Async: noAsync}
}

// hotRef is what warm-up recorded for one hot spec: the oracle for hits and
// for the renamed misses.
type hotRef struct {
	spec     spec
	g        *stg.STG
	raw      []byte // the synthesize result bytes every hit must replay
	eqn      string // canonical equations, to compare renamed misses against
	literals int
	verdicts string // prop.Standard() statuses, in order
}

func synthResult(resp *serve.Response) (*serve.SynthesizeResult, error) {
	var res serve.SynthesizeResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		return nil, err
	}
	if res.Verification == nil || !res.Verification.OK {
		return nil, fmt.Errorf("%s: implementation fails verification", res.Name)
	}
	return &res, nil
}

// verdicts lists the property statuses of a /v1/verify result in order.
func verdicts(resp *serve.Response) (string, error) {
	var res serve.VerifyResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, v := range res.Properties {
		b.WriteString(v.Status + " ")
	}
	return b.String(), nil
}

// warm sends each hot spec once to /v1/synthesize and /v1/verify.
func warm(c *client, specs []spec) ([]hotRef, error) {
	refs := make([]hotRef, len(specs))
	for i, s := range specs {
		g, err := parse(s.text)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", s.name, err)
		}
		resp, err := c.post("/v1/synthesize", synthRequest(s.text))
		if err != nil {
			return nil, err
		}
		res, err := synthResult(resp)
		if err != nil {
			return nil, err
		}
		vresp, err := c.post("/v1/verify", verifyRequest(s.text))
		if err != nil {
			return nil, err
		}
		v, err := verdicts(vresp)
		if err != nil {
			return nil, err
		}
		refs[i] = hotRef{spec: s, g: g, raw: resp.Result, eqn: canonEquations(res.Equations), literals: res.Literals, verdicts: v}
	}
	return refs, nil
}

// sample is one completed request.
type sample struct {
	class int
	spec  int // index into the hot specs
	ms    float64
	end   time.Time
}

// clientRun is what one client measured.
type clientRun struct {
	samples         []sample
	errs            []error   // the oracle's verdict per request, nil when correct
	parseMS, hashMS []float64 // traced runs: the front end timed from outside
}

// mixClient runs one closed-loop client until the deadline: it sends its
// next request only after the previous one completed.
func mixClient(c *client, refs []hotRef, rng *rand.Rand, cid int, deadline time.Time, tr *tracer) *clientRun {
	run := &clientRun{}
	cards := newDeck(rng, len(refs))
	for n := 0; time.Now().Before(deadline); n++ {
		class, k := cards.deal()
		ref := &refs[k]
		var rn *renamer
		text := ref.spec.text
		if class != hit {
			rn = newRenamer(ref.g, rng, cid*1e9+n)
			text = rn.spec(text)
		}
		root := tr.begin("request", -1)
		if tr != nil {
			// The daemon's per-request front end, timed from outside.
			id := tr.begin("stg.parse", root)
			t := time.Now()
			g, err := parse(text)
			run.parseMS = append(run.parseMS, ms(time.Since(t)))
			tr.end(id)
			if err == nil {
				id = tr.begin("stg.canonical_hash", root)
				t = time.Now()
				_, _ = g.CanonicalHash() // timed only; the daemon reports hash errors
				run.hashMS = append(run.hashMS, ms(time.Since(t)))
				tr.end(id)
			}
		}
		req, path := synthRequest(text), "/v1/synthesize"
		if class == verifyMiss {
			req, path = verifyRequest(text), "/v1/verify"
		}
		httpID := tr.begin("serve.http", root)
		start := time.Now()
		resp, err := c.post(path, req)
		end := time.Now()
		tr.end(httpID)
		tr.end(root)
		if err == nil {
			err = checkResponse(class, ref, rn, resp)
		}
		if err != nil {
			err = fmt.Errorf("%s %s: %w", classNames[class], ref.spec.name, err)
		}
		run.errs = append(run.errs, err)
		run.samples = append(run.samples, sample{class: class, spec: k, ms: ms(end.Sub(start)), end: end})
	}
	return run
}

// checkResponse is the daemon oracle: hits replay the warm-up bytes, renamed
// misses give the original spec's equations and property verdicts.
func checkResponse(class int, ref *hotRef, rn *renamer, resp *serve.Response) error {
	switch class {
	case hit:
		if !bytes.Equal(resp.Result, ref.raw) {
			return errors.New("cached result differs from the first result for its key")
		}
	case synthMiss:
		res, err := synthResult(resp)
		if err != nil {
			return err
		}
		if got := rn.restore(res.Equations); got != ref.eqn || res.Literals != ref.literals {
			return fmt.Errorf("renamed spec synthesized differently:\n%s\nvs\n%s", got, ref.eqn)
		}
	case verifyMiss:
		v, err := verdicts(resp)
		if err != nil {
			return err
		}
		if v != ref.verdicts {
			return fmt.Errorf("verdicts %q, want %q", v, ref.verdicts)
		}
	}
	return nil
}

func runDaemon(cfg config, rep *report) error {
	specs, err := hotSpecs()
	if err != nil {
		return err
	}
	var d *daemon
	var refs []hotRef
	var setups []float64
	for i := 0; i < daemonSetups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		start := time.Now()
		if d, err = startDaemon(); err != nil {
			return err
		}
		c := newClient(d.url)
		r, err := warm(c, specs)
		c.hc.CloseIdleConnections()
		if err != nil {
			d.stop()
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		for k := range r {
			if refs != nil && !bytes.Equal(r[k].raw, refs[k].raw) {
				rep.op(fmt.Errorf("%s: warm-up result differs between daemon starts", r[k].spec.name))
			}
		}
		refs = r
	}
	err = runMix(cfg, rep, d, refs, median(setups))
	return errors.Join(err, d.stop())
}

func runMix(cfg config, rep *report, d *daemon, refs []hotRef, setupS float64) error {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	probe := newClient(d.url)
	defer probe.hc.CloseIdleConnections()
	before, err := probe.counters()
	if err != nil {
		return err
	}
	rss := sampleRSS()
	defer rss.close()
	const nClients = 2
	runs := make([]*clientRun, nClients)
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(d.url)
			defer c.hc.CloseIdleConnections()
			rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(i)))
			runs[i] = mixClient(c, refs, rng, i, deadline, tr)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	peakMB := rss.take()
	after, err := probe.counters()
	if err != nil {
		return err
	}

	var samples []sample
	var parseMS, hashMS []float64
	for _, r := range runs {
		samples = append(samples, r.samples...)
		parseMS = append(parseMS, r.parseMS...)
		hashMS = append(hashMS, r.hashMS...)
		for _, err := range r.errs {
			rep.op(err)
		}
	}
	// cells[class][spec] holds the latencies of one request kind on one
	// spec. Statistics over cell medians weigh every cell once, however the
	// seeded mix happened to split the requests between them.
	var all []float64
	cells := make([][][]float64, classes)
	for c := range cells {
		cells[c] = make([][]float64, len(refs))
	}
	for _, s := range samples {
		all = append(all, s.ms)
		cells[s.class][s.spec] = append(cells[s.class][s.spec], s.ms)
	}
	var cellMedians, missMedians, hitMS []float64
	for c := range cells {
		for k, xs := range cells[c] {
			m := median(xs)
			fmt.Fprintf(os.Stderr, "%-12s %-16s %6d requests, median %8.3f ms\n", classNames[c], refs[k].spec.name, len(xs), m)
			if len(xs) == 0 {
				continue
			}
			cellMedians = append(cellMedians, m)
			if c == hit {
				hitMS = append(hitMS, xs...)
			} else {
				missMedians = append(missMedians, m)
			}
		}
	}

	if !cfg.traced {
		lits := 0
		for _, r := range refs {
			lits += r.literals
		}
		rep.set("setup_s", "s", setupS)
		rep.set("flow_s", "s", blockSeconds(samples, start))
		rep.set("flow_geomean_ms", "ms", geomean(cellMedians))
		rep.set("netlist_literals", "count", float64(lits))
		rep.set("req_p50_ms", "ms", median(all))
		rep.set("req_p99_ms", "ms", quantile(all, 0.99))
		rep.set("miss_p50_ms", "ms", median(missMedians))
		rep.set("req_per_s", "1/s", float64(len(samples))/elapsed)
		rep.set("peak_rss_mb", "MB", peakMB)
		return nil
	}

	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	reqs := delta("serve.requests")
	hits := delta("serve.cache_hits") + delta("serve.cache_disk_hits")
	rep.set("serve.hit_p50_ms", serveUnits["serve.hit_p50_ms"], median(hitMS))
	rep.set("serve.cache_hit_ratio", serveUnits["serve.cache_hit_ratio"], ratio(hits, hits+delta("serve.cache_misses")))
	rep.set("serve.disk_hits", serveUnits["serve.disk_hits"], delta("serve.cache_disk_hits"))
	rep.set("serve.engine_runs_per_req", serveUnits["serve.engine_runs_per_req"], ratio(delta("serve.engine_runs"), reqs))
	rep.set("serve.journal_records_per_req", serveUnits["serve.journal_records_per_req"], ratio(delta("serve.journal_records"), reqs))
	rep.set("serve.shed_total", serveUnits["serve.shed_total"], delta("serve.shed_total"))
	rep.set("stg.parse_ms", "ms", median(parseMS))
	rep.set("stg.canonical_hash_ms", "ms", median(hashMS))
	if err := replayMisses(cfg, rep, tr, refs); err != nil {
		return err
	}
	return tr.write(cfg.workload, cfg.seed, rep.Metrics["trace_overhead_ratio"].Value)
}

// blockSeconds is the median wall time the daemon took to complete each
// consecutive block of daemonBlock requests (a partial last block is
// dropped; a run shorter than one block reports its whole time).
func blockSeconds(samples []sample, start time.Time) float64 {
	ends := make([]time.Time, len(samples))
	for i, s := range samples {
		ends[i] = s.end
	}
	if len(ends) == 0 {
		return 0
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	var blocks []float64
	prev := start
	for i := daemonBlock - 1; i < len(ends); i += daemonBlock {
		blocks = append(blocks, ends[i].Sub(prev).Seconds())
		prev = ends[i]
	}
	if len(blocks) == 0 {
		return ends[len(ends)-1].Sub(start).Seconds()
	}
	return median(blocks)
}

// replayMisses gives the flow layers and prop their numbers on the daemon
// workload: renamed copies of the hot specs, the work behind a miss, run
// through core.Synthesize, the layer-by-layer replay and prop.Check.
func replayMisses(cfg config, rep *report, tr *tracer, refs []hotRef) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	var passes []layerPass
	var coreMS, coreS, propMS []float64
	for r := 0; r < replayReps; r++ {
		gs := make([]*stg.STG, len(refs))
		rns := make([]*renamer, len(refs))
		for i, ref := range refs {
			rns[i] = newRenamer(ref.g, rng, 2e9+r)
			g, err := parse(rns[i].spec(ref.spec.text))
			if err != nil {
				return err
			}
			gs[i] = g
		}
		passStart := time.Now()
		for i, g := range gs {
			t := time.Now()
			res, err := core.Synthesize(g, core.Options{Workers: cfg.workers})
			coreMS = append(coreMS, ms(time.Since(t)))
			if err == nil {
				err = sameEquations(rns[i], &refs[i], eqnText(res.Netlist))
			}
			rep.op(err)
		}
		coreS = append(coreS, time.Since(passStart).Seconds())
		p, out := replayPass(tr, gs, cfg.workers)
		passes = append(passes, p)
		for i, o := range out {
			err := o.err
			if err == nil && !o.v.OK() {
				err = fmt.Errorf("%s: implementation fails verification", gs[i].Name())
			}
			if err == nil {
				err = sameEquations(rns[i], &refs[i], eqnText(o.nl))
			}
			rep.op(err)
		}
		for i, g := range gs {
			root := tr.begin("verify", -1)
			id := tr.begin("prop.check", root)
			t := time.Now()
			pr, err := prop.Check(g, prop.Standard(), prop.Options{Workers: cfg.workers})
			propMS = append(propMS, ms(time.Since(t)))
			tr.end(id)
			tr.end(root)
			if err == nil {
				var b strings.Builder
				for _, v := range pr.Verdicts {
					b.WriteString(v.Status.String() + " ")
				}
				if b.String() != refs[i].verdicts {
					err = fmt.Errorf("%s: prop.Check verdicts %q, daemon said %q", refs[i].spec.name, b.String(), refs[i].verdicts)
				}
			}
			rep.op(err)
		}
	}
	layerMetrics(rep, passes, median(coreS))
	rep.set("core.flow_ms", "ms", median(coreMS))
	rep.set("prop.check_ms", "ms", median(propMS))
	return nil
}

// sameEquations compares a renamed spec's equations with the original's.
func sameEquations(rn *renamer, ref *hotRef, eqn string) error {
	if got := rn.restore(eqn); got != ref.eqn {
		return fmt.Errorf("%s: renamed spec synthesized differently:\n%s\nvs\n%s", ref.spec.name, got, ref.eqn)
	}
	return nil
}

// serveUnits names the daemon's per-layer metrics with their units.
var serveUnits = map[string]string{
	"serve.hit_p50_ms":              "ms",
	"serve.cache_hit_ratio":         "ratio",
	"serve.disk_hits":               "count",
	"serve.engine_runs_per_req":     "ratio",
	"serve.journal_records_per_req": "ratio",
	"serve.shed_total":              "count",
}

// eqnText is the verify-compatible .eqn rendering the daemon returns.
func eqnText(nl *logic.Netlist) string {
	var b strings.Builder
	nl.WriteEquations(&b) // a strings.Builder does not fail
	return b.String()
}
