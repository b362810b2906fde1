package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"sparseroute/internal/graph"
	"sparseroute/internal/obs"
)

const (
	// setupRuns is how many daemons an untraced run starts to time set-up;
	// the last one serves the pass. The traced passes report no set-up
	// time and start only the daemon they drive.
	setupRuns = 7
	// readInterval is the open-loop reader's schedule: 50 GET /v1/routing a
	// second.
	readInterval = 20 * time.Millisecond
	// checkEvery is the mutation stride of the output check; it also runs
	// after every link event and at the end of the pass.
	checkEvery = 25
	// maxReadLagMs bounds the reader's p99 lateness against its schedule
	// (time it sent a read after the read was due and the previous read had
	// returned). A run beyond it measured the generator, not the daemon, and
	// is reported invalid.
	maxReadLagMs = 25
	// passSlack is how far past --seconds a pass may run to finish its
	// congestion prefix before it is abandoned.
	passSlack = 60 * time.Second
)

// runConfig is what every pass of one run shares.
type runConfig struct {
	routed string
	dir    string
	w      workload
	g      *graph.Graph
	topo   string
	seed   uint64
}

// mutationRecord is one measured PATCH/POST ?wait=1 exchange.
type mutationRecord struct {
	rttMs float64
	warm  string
	trace *obs.EpochTrace // traced pass only
}

type passResult struct {
	setups    []float64 // seconds
	hash      string
	muts      []mutationRecord // measured phase only
	failMs    []float64        // link events that fail an edge
	restoreMs []float64        // link events that restore it
	readsMs   []float64        // from due time
	readLagMs []float64
	congs     []float64  // every solved mutation reply, warm-up included, in order
	ctl       accounting // the controller's ops: mutations and link events
	reads     accounting // the reader's GET /v1/routing
	cpuMs     float64    // daemon CPU over the measured phase, link events excluded
	rssMB     float64
	ops       []op // every op sent, in order (Matrix dropped)
	checks    int
	checkErr  error
}

// total is every op of the pass, controller and reader.
func (p *passResult) total() accounting {
	var a accounting
	a.merge(p.ctl)
	a.merge(p.reads)
	return a
}

func (p *passResult) mutationRTTs() []float64 {
	xs := make([]float64, len(p.muts))
	for i, m := range p.muts {
		xs[i] = m.rttMs
	}
	return xs
}

func (p *passResult) cpuPerMutation() float64 {
	if len(p.muts) == 0 {
		return 0
	}
	return p.cpuMs / float64(len(p.muts))
}

// controller is the closed-loop client: one connection, one request at a
// time.
type controller struct {
	cfg       runConfig
	daemon    *daemon
	client    *http.Client
	traced    bool
	lastEpoch uint64
	res       *passResult
	// linkCPU is the daemon CPU spent inside link events (request through
	// re-adapt), which cpu_ms_per_mutation leaves out.
	linkCPU time.Duration
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole reply.
func (c *controller) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.daemon.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// send sends one op: it counts the op as sent, then does the exchange. The
// caller books the op's outcome.
func (c *controller) send(method, path string, body []byte) (int, []byte, error) {
	c.res.ctl.send()
	return c.do(method, path, body)
}

// bookFailure books a failed op and reports it.
func (c *controller) bookFailure(o op, b bucket, status int, err error, body []byte) {
	c.res.ctl.book(b)
	fmt.Fprintf(os.Stderr, "servebench: %v failed (%s): status %d %v %s\n", o.Kind, bucketNames[b], status, err, bytes.TrimSpace(body))
}

type mutationReply struct {
	Epoch      uint64  `json:"epoch"`
	Solved     bool    `json:"solved"`
	Congestion float64 `json:"congestion"`
	Warm       string  `json:"warm"`
}

// mutate sends one POST/PATCH ?wait=1 and books it. ok is false when the
// op failed; the error is a correctness failure.
func (c *controller) mutate(o op) (rec mutationRecord, ok bool, err error) {
	method := http.MethodPost
	if o.Kind == opPatch {
		method = http.MethodPatch
	}
	t0 := time.Now()
	status, body, herr := c.send(method, "/v1/demand?wait=1", o.Body)
	rec.rttMs = msSince(t0)
	var rep mutationReply
	if herr == nil && status == http.StatusOK {
		if jerr := json.Unmarshal(body, &rep); jerr != nil {
			// A 200 whose body is not a mutation reply is the server's fault.
			c.bookFailure(o, bucketServerErr, status, fmt.Errorf("decoding reply: %w", jerr), body)
			return rec, false, nil
		}
	}
	if b := classify(status, herr, rep.Solved); b != bucketOK {
		c.bookFailure(o, b, status, herr, body)
		return rec, false, nil
	}
	c.res.ctl.book(bucketOK)
	if rep.Epoch != c.lastEpoch+1 {
		return rec, false, fmt.Errorf("%v answered epoch %d, want %d", o.Kind, rep.Epoch, c.lastEpoch+1)
	}
	c.lastEpoch = rep.Epoch
	rec.warm = rep.Warm
	c.res.congs = append(c.res.congs, rep.Congestion)
	if c.traced {
		tr, err := c.fetchTrace(rep.Epoch)
		if err != nil {
			return rec, false, err
		}
		rec.trace = tr
	}
	return rec, true, nil
}

// fetchTrace reads /debug/trace and returns the epoch's record.
func (c *controller) fetchTrace(epoch uint64) (*obs.EpochTrace, error) {
	status, body, err := c.do(http.MethodGet, "/debug/trace?n=4", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/trace: status %d %v", status, err)
	}
	var rep struct {
		Traces []*obs.EpochTrace `json:"traces"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("decoding /debug/trace: %w", err)
	}
	for _, tr := range rep.Traces {
		if tr.Epoch == epoch {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("/debug/trace has no record of epoch %d", epoch)
}

type healthReply struct {
	Epoch       uint64 `json:"epoch"`
	LastOutcome *struct {
		Epoch uint64
		OK    bool
	} `json:"last_outcome"`
}

// link sends one link event, then waits until the re-adapt epoch the event
// queues has finished, so the next mutation never races it and congestion
// stays a function of the request list alone. A link event takes two
// epochs: the interim renormalized publish and the re-adapt.
func (c *controller) link(o op) (rttMs float64, ok bool, err error) {
	cpu0, err := c.daemon.cpuTime()
	if err != nil {
		return 0, false, err
	}
	defer func() {
		cpu1, cerr := c.daemon.cpuTime()
		if err == nil {
			err = cerr
		}
		c.linkCPU += cpu1 - cpu0
	}()
	t0 := time.Now()
	status, body, herr := c.send(http.MethodPost, "/v1/links", o.Body)
	rttMs = msSince(t0)
	if b := classify(status, herr, true); b != bucketOK {
		c.bookFailure(o, b, status, herr, body)
		return rttMs, false, nil
	}
	target := c.lastEpoch + 2
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, body, herr := c.do(http.MethodGet, "/healthz", nil)
		if b := classify(status, herr, true); b != bucketOK {
			c.bookFailure(o, b, status, fmt.Errorf("polling /healthz: %v", herr), body)
			return rttMs, false, nil
		}
		var h healthReply
		if err := json.Unmarshal(body, &h); err != nil {
			c.bookFailure(o, bucketServerErr, status, fmt.Errorf("decoding /healthz: %w", err), body)
			return rttMs, false, nil
		}
		if h.Epoch >= target {
			break
		}
		if lo := h.LastOutcome; lo != nil && lo.Epoch >= target && !lo.OK {
			c.bookFailure(o, bucketUnsolved, status, errors.New("re-adapt did not solve"), nil)
			return rttMs, false, nil
		}
		if time.Now().After(deadline) {
			c.bookFailure(o, bucketUnsolved, status, errors.New("re-adapt not done within 60s"), nil)
			return rttMs, false, nil
		}
		time.Sleep(time.Millisecond)
	}
	c.res.ctl.book(bucketOK)
	c.lastEpoch = target
	return rttMs, true, nil
}

// check reads the active routing and verifies it against o, the last op
// applied.
func (c *controller) check(o op) error {
	status, body, err := c.do(http.MethodGet, "/v1/routing", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("output check: GET /v1/routing: status %d %v", status, err)
	}
	epoch, err := checkRouting(body, c.cfg.g, o.Matrix, o.Failed)
	if err != nil {
		return fmt.Errorf("output check at epoch %d: %w", c.lastEpoch, err)
	}
	if epoch != c.lastEpoch {
		return fmt.Errorf("output check: routing is epoch %d, want %d", epoch, c.lastEpoch)
	}
	c.res.checks++
	return nil
}

// reader is the open-loop client: GET /v1/routing every readInterval on its
// own connection, each timed from its due time.
type reader struct {
	acct   accounting
	lat    []float64
	lag    []float64
	stop   chan struct{}
	exited chan struct{}
}

func startReader(url string) *reader {
	r := &reader{stop: make(chan struct{}), exited: make(chan struct{})}
	go r.run(url)
	return r
}

func (r *reader) run(url string) {
	defer close(r.exited)
	client := newClient()
	defer client.CloseIdleConnections()
	start := time.Now()
	prevDone := start
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * readInterval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-r.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-r.stop:
				return
			default:
			}
		}
		sent := time.Now()
		ready := due
		if prevDone.After(ready) {
			ready = prevDone
		}
		r.lag = append(r.lag, ms(sent.Sub(ready)))
		status := 0
		r.acct.send()
		resp, err := client.Get(url + "/v1/routing")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}
		prevDone = time.Now()
		r.lat = append(r.lat, ms(prevDone.Sub(due)))
		r.acct.book(classify(status, err, true))
	}
}

// halt stops the reader and waits for it to exit.
func (r *reader) halt() {
	close(r.stop)
	<-r.exited
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// runPass starts the daemon (timing set-up over starts daemons), sends the
// workload's first matrix as warm-up, then drives the controller and the
// reader for seconds (and at least congestionPrefix mutations) and
// stops the daemon.
func runPass(ctx context.Context, cfg runConfig, name string, traced bool, seconds time.Duration, starts int) (*passResult, error) {
	res := &passResult{}
	for i := 0; i < starts-1; i++ {
		d, err := startDaemon(ctx, cfg.routed, cfg.topo, filepath.Join(cfg.dir, fmt.Sprintf("%s-setup%d", name, i)))
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, d.setup.Seconds())
		d.kill()
	}
	d, err := startDaemon(ctx, cfg.routed, cfg.topo, filepath.Join(cfg.dir, name))
	if err != nil {
		return nil, err
	}
	res.setups = append(res.setups, d.setup.Seconds())
	res.hash = d.hash
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	c := &controller{cfg: cfg, daemon: d, client: newClient(), traced: traced, res: res}
	defer c.client.CloseIdleConnections()
	gen := newGenerator(cfg.w, cfg.g, cfg.seed)
	first := gen.next()
	res.ops = append(res.ops, withoutMatrix(first))
	if _, ok, err := c.mutate(first); err != nil || !ok {
		return nil, fmt.Errorf("warm-up %v failed: %v", first.Kind, err)
	}
	if err := c.check(first); err != nil {
		return nil, err
	}

	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	rd := startReader(d.url)
	last := c.drive(ctx, gen, first, seconds)
	rd.halt()
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	if res.rssMB, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if res.checkErr == nil && res.ctl.failed() == 0 {
		res.checkErr = c.check(last)
	}
	res.cpuMs = ms(cpu1 - cpu0 - c.linkCPU)
	res.readsMs, res.readLagMs = rd.lat, rd.lag
	res.reads = rd.acct
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}
	return res, nil
}

// drive sends the workload's ops after the warm-up op first until seconds
// have passed and at least congestionPrefix mutations are solved, and
// returns the last op applied. It stops at the first op that fails: the
// daemon's state then no longer follows the request list, so the run is
// invalid (validity reports every failed controller op) and nothing after
// the failure would measure the workload.
func (c *controller) drive(ctx context.Context, gen *generator, first op, seconds time.Duration) op {
	res := c.res
	start := time.Now()
	mutations := 1
	last := first
	for ctx.Err() == nil {
		elapsed := time.Since(start)
		if elapsed >= seconds && mutations >= congestionPrefix {
			break
		}
		if elapsed >= seconds+passSlack {
			res.checkErr = fmt.Errorf("pass reached only %d of %d mutations in %v", mutations, congestionPrefix, elapsed)
			break
		}
		o := gen.next()
		res.ops = append(res.ops, withoutMatrix(o))
		var ok bool
		var err error
		if o.mutation() {
			var rec mutationRecord
			rec, ok, err = c.mutate(o)
			if ok {
				res.muts = append(res.muts, rec)
				mutations++
			}
		} else {
			var rtt float64
			rtt, ok, err = c.link(o)
			if ok && o.Kind == opFail {
				res.failMs = append(res.failMs, rtt)
			} else if ok {
				res.restoreMs = append(res.restoreMs, rtt)
			}
		}
		if err != nil {
			res.checkErr = err
			break
		}
		if !ok {
			break
		}
		last = o
		if !o.mutation() || mutations%checkEvery == 0 {
			if err := c.check(o); err != nil {
				res.checkErr = err
				break
			}
		}
	}
	return last
}

// withoutMatrix drops the expected matrix, which only the output check
// needs, so a pass does not hold one matrix per op.
func withoutMatrix(o op) op {
	o.Matrix = nil
	return o
}
