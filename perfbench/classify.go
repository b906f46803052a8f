package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"solarml/internal/compute"
	"solarml/internal/dataset"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/quant"
	"solarml/internal/serve"
	"solarml/internal/tensor"
)

// classifySpec is one /classify traffic mix: an open loop at two fixed
// rates, then a search for the highest rate that keeps p99 within the limit
// with no growing backlog. The fixed rates stay below what the 2-core
// reference host sustains while its hypervisor steals a quarter of the
// CPU time (max_rps 200–290 for single), so no request fails at them.
type classifySpec struct {
	perBody         int // instances per /classify body
	lowRPS, highRPS float64
	limit           time.Duration
}

var (
	singleSpec = classifySpec{perBody: 1, lowRPS: 100, highRPS: 200, limit: 20 * time.Millisecond}
	bulkSpec   = classifySpec{perBody: 16, lowRPS: 25, highRPS: 50, limit: 50 * time.Millisecond}
)

// Shares of --seconds spent in the low and the high fixed-rate phase and
// in the closed loop; the rest goes to the rate search, in steps of
// searchStep.
const (
	lowShare, highShare, closedShare = 0.15, 0.30, 0.15
	searchStep                       = time.Second
)

// The served model and server: cmd/deploy's and cmd/serve's defaults.
const (
	deployN       = 300
	deployEpochs  = 10
	serveBatch    = 16
	serveWorkers  = 2
	serveDeadline = 2 * time.Millisecond
)

// deployCandidate is cmd/deploy's built-in candidate (720-float input).
func deployCandidate() (*nas.Candidate, error) {
	c := &nas.Candidate{Task: nas.TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 6, RateHz: 80,
			Quant: quant.Config{Res: quant.Int, Bits: 8}},
		Arch: &nn.Arch{Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindDense, Out: 32},
			{Kind: nn.KindReLU},
		}, Classes: dataset.NumGestureClasses}}
	return c, c.Validate()
}

// deployment is one set-up of the service: a trained, int8-converted,
// container-round-tripped model behind serve.Server on loopback HTTP.
type deployment struct {
	model  *nn.Int8Model
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	inputs [][]float64 // every instance of the seed's data set
	steps  map[string]float64

	want    []serve.Result // direct Int8Executor.Forward of each instance
	bodies  [][]byte       // pre-encoded /classify bodies
	members [][]int        // the instances in each body
}

// deploy sets the service up from the seed: data set, float Fit, float
// container round trip, ConvertInt8, int8 container round trip, server
// start. Each step is timed into d.steps and spanned on tr.
func deploy(seed int64, reg *obs.Registry, tr *tracer) (*deployment, error) {
	d := &deployment{steps: map[string]float64{}}
	root := tr.begin("setup", nil)
	defer tr.end(root)
	step := func(name string, fn func() error) error {
		sp := tr.begin(name, root)
		t0 := time.Now()
		err := fn()
		d.steps[name] += time.Since(t0).Seconds()
		tr.end(sp)
		return err
	}
	cand, err := deployCandidate()
	if err != nil {
		return nil, err
	}
	var trX, teX *tensor.Tensor
	var trY []int
	var fnet *nn.Network // the float model
	var m *nn.Int8Model
	err = step("setup.dataset", func() error {
		train, test := dataset.BuildGestureSet(deployN, 500, seed).Split(4)
		if trX, trY, err = train.Materialize(cand.Gesture); err != nil {
			return err
		}
		teX, _, err = test.Materialize(cand.Gesture)
		return err
	})
	if err == nil {
		err = step("setup.fit", func() error {
			if fnet, err = cand.Arch.Build(); err != nil {
				return err
			}
			fnet.Init(rand.New(rand.NewSource(seed)))
			fnet.Fit(trX, trY, nn.TrainConfig{Epochs: deployEpochs, BatchSize: 16, LR: 0.03, Momentum: 0.9, Seed: seed})
			return nil
		})
	}
	if err == nil {
		err = step("setup.container", func() error {
			var buf bytes.Buffer
			if err := nn.SaveModelContainer(&buf, cand.Arch, fnet); err != nil {
				return err
			}
			_, fnet, err = nn.LoadModelContainer(&buf)
			return err
		})
	}
	if err == nil {
		err = step("setup.convert", func() error {
			m, err = nn.ConvertInt8(cand.Arch, fnet, trX, nn.PTQConfig{WeightBits: 8, ActBits: 8})
			return err
		})
	}
	if err == nil {
		err = step("setup.container", func() error {
			var buf bytes.Buffer
			if err := nn.SaveInt8Model(&buf, m); err != nil {
				return err
			}
			d.model, err = nn.LoadInt8Model(&buf)
			return err
		})
	}
	if err == nil {
		err = step("setup.server", d.start(reg))
	}
	if err != nil {
		return nil, err
	}
	vol := d.model.InVol()
	for _, x := range []*tensor.Tensor{trX, teX} {
		for i := 0; i+vol <= len(x.Data); i += vol {
			d.inputs = append(d.inputs, x.Data[i:i+vol])
		}
	}
	return d, nil
}

// start returns the step that starts serve.Server behind an HTTP server on
// a loopback port and waits until it answers /healthz.
func (d *deployment) start(reg *obs.Registry) func() error {
	return func() error {
		srv, err := serve.New(serve.Config{
			Model: d.model, Compute: compute.NewContextFor(compute.BudgetWorkers(serveWorkers), reg),
			MaxBatch: serveBatch, BatchDeadline: serveDeadline, Workers: serveWorkers, Reg: reg,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			return err
		}
		d.srv, d.url = srv, "http://"+ln.Addr().String()
		d.hs = &http.Server{Handler: srv.Handler()}
		d.served = make(chan error, 1)
		go func() { d.served <- d.hs.Serve(ln) }()
		resp, err := http.Get(d.url + "/healthz")
		if err != nil {
			d.close()
			return err
		}
		resp.Body.Close()
		return nil
	}
}

// close stops the HTTP server and the batcher and waits for both.
func (d *deployment) close() {
	d.hs.Close()
	<-d.served
	d.srv.Close()
}

// prepare computes the reference outputs — a direct batch-1
// Int8Executor.Forward of every instance — and encodes the request bodies:
// perBody instances each, drawn from a seeded permutation.
func (d *deployment) prepare(seed int64, perBody int) error {
	ex := d.model.NewExecutor(nil, 1)
	d.want = make([]serve.Result, len(d.inputs))
	for i, x := range d.inputs {
		d.want[i] = forwardResult(ex, x)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(d.inputs))
	for i := 0; i+perBody <= len(perm); i += perBody {
		body := struct {
			Instances [][]float64 `json:"instances"`
		}{}
		for _, k := range perm[i : i+perBody] {
			body.Instances = append(body.Instances, d.inputs[k])
		}
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		d.bodies = append(d.bodies, b)
		d.members = append(d.members, perm[i:i+perBody])
	}
	return nil
}

// forwardResult runs one instance through ex and takes the argmax the way
// the server does (first maximum wins).
func forwardResult(ex *nn.Int8Executor, x []float64) serve.Result {
	logits := append([]float64(nil), ex.Forward(x, 1)...)
	cls := 0
	for j := range logits {
		if logits[j] > logits[cls] {
			cls = j
		}
	}
	return serve.Result{Class: cls, Logits: logits}
}

// checkReply verifies one /classify reply against the reference outputs of
// the body's instances: same count, class and logits.
func checkReply(want []serve.Result, members []int, got []serve.Result) error {
	if len(got) != len(members) {
		return fmt.Errorf("%d predictions for %d instances", len(got), len(members))
	}
	for i, k := range members {
		w, g := want[k], got[i]
		if g.Class != w.Class {
			return fmt.Errorf("instance %d: class %d, direct forward gives %d", k, g.Class, w.Class)
		}
		if len(g.Logits) != len(w.Logits) {
			return fmt.Errorf("instance %d: %d logits, want %d", k, len(g.Logits), len(w.Logits))
		}
		for j := range w.Logits {
			if g.Logits[j] != w.Logits[j] {
				return fmt.Errorf("instance %d: logit %d is %v, direct forward gives %v", k, j, g.Logits[j], w.Logits[j])
			}
		}
	}
	return nil
}

// phase is one open-loop load phase.
type phase struct {
	rate      float64
	lat, late []float64 // ms: latency from each request's due time; generator lateness
	pending   int       // requests not answered by the phase deadline
	start     time.Time // when the first request was due
	last      time.Time // when the last reply arrived
	errs      int       // non-2xx, transport errors, wrong outputs
}

func (p *phase) tail() float64 { return quantile(p.lat, tailP(len(p.lat))) }

// achieved is the completed requests per second of wall time, from the
// phase's start to its last reply.
func (p *phase) achieved() float64 { return float64(len(p.lat)) / p.last.Sub(p.start).Seconds() }

// within reports whether the phase met the latency limit with no errors
// and no backlog left at its deadline.
func (p *phase) within(limit time.Duration) bool {
	return p.errs == 0 && p.pending == 0 && len(p.lat) > 0 &&
		quantile(p.lat, 0.99) <= float64(limit)/1e6
}

// load offers rate requests per second for dur in an open loop: request k
// is due at start + k/rate, whether or not earlier ones have returned. At
// most nproc requests are in flight, one per sender. Requests still
// unanswered at dur+grace count as pending; with counted set they are
// failures, otherwise they only mark the rate as too high.
func (d *deployment) load(r *run, c *http.Client, rate float64, dur, grace time.Duration, counted bool) *phase {
	n := int(rate * dur.Seconds())
	start := time.Now().Add(5 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(dur+grace))
	defer cancel()
	var next atomic.Int64
	var mu sync.Mutex
	ph := &phase{rate: rate, start: start}
	var wg sync.WaitGroup
	for s := 0; s < runtime.NumCPU(); s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, late []float64
			var last time.Time
			pending, errs := 0, 0
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					break
				}
				due := start.Add(time.Duration(float64(k) / rate * 1e9))
				time.Sleep(time.Until(due))
				sent := time.Now()
				r.op(1)
				switch err := d.send(ctx, r, c, k%len(d.bodies)); {
				case err == nil:
					last = time.Now()
					lat = append(lat, float64(last.Sub(due))/1e6)
					late = append(late, float64(sent.Sub(due))/1e6)
				case ctx.Err() != nil:
					pending++
					if counted {
						r.fail("pending")
					}
				default:
					errs++
				}
			}
			mu.Lock()
			ph.lat, ph.late = append(ph.lat, lat...), append(ph.late, late...)
			ph.pending += pending
			if last.After(ph.last) {
				ph.last = last
			}
			ph.errs += errs
			mu.Unlock()
		}()
	}
	wg.Wait()
	return ph
}

// send posts body b and checks the reply. Failures other than the phase
// deadline are counted by reason.
func (d *deployment) send(ctx context.Context, r *run, c *http.Client, b int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/classify", bytes.NewReader(d.bodies[b]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			r.fail("transport")
		}
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		if ctx.Err() == nil {
			r.fail("transport")
		}
		return err
	}
	return d.checkBody(r, b, resp.StatusCode, body)
}

// checkBody checks the reply to body b: status 200, and predictions equal
// to the reference outputs of the body's instances.
func (d *deployment) checkBody(r *run, b, status int, body []byte) error {
	if status != http.StatusOK {
		r.fail(fmt.Sprintf("http.%d", status))
		return fmt.Errorf("status %d", status)
	}
	var reply struct {
		Predictions []serve.Result `json:"predictions"`
	}
	err := json.Unmarshal(body, &reply)
	if err == nil {
		err = checkReply(d.want, d.members[b], reply.Predictions)
	}
	if err != nil {
		r.wrongOutput()
	}
	return err
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
	}}
}

// saturate keeps nproc requests in flight for dur, each sender posting
// its next request as soon as the previous one returns, and returns the
// replies per second. No open-loop rate above it can keep up: the open
// loop has no more senders.
func (d *deployment) saturate(r *run, c *http.Client, dur time.Duration) float64 {
	var done atomic.Int64
	start := time.Now()
	stop := start.Add(dur)
	var wg sync.WaitGroup
	n := runtime.NumCPU()
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := s; time.Now().Before(stop); k += n {
				r.op(1)
				if d.send(context.Background(), r, c, k%len(d.bodies)) == nil {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(done.Load()) / time.Since(start).Seconds()
}

// searchRate looks for the highest rate that stays within the limit. The
// bracket starts at the high fixed phase's rate and the closed-loop
// capacity when that phase passed, and otherwise lowers the rate by a
// third until a step passes; then it bisects (geometrically) until the
// time is up. A rate fails only when two steps in a row fail, so one stall
// of the host does not end the search. It returns the throughput achieved
// at the highest passing rate (0 if none passed) and the number of steps
// run.
func (d *deployment) searchRate(r *run, c *http.Client, spec classifySpec, high *phase, capacity float64, budget time.Duration) (float64, int) {
	lo, hi, best := 0.0, high.rate, 0.0
	if high.within(spec.limit) {
		lo, hi, best = high.rate, capacity, high.achieved()
	}
	steps := 0
	for end := time.Now().Add(budget); time.Until(end) >= searchStep; {
		rate := math.Sqrt(lo * hi)
		if lo == 0 {
			rate = hi / 1.5
		}
		ok := false
		for try := 0; try < 2 && !ok && time.Until(end) >= searchStep; try++ {
			ph := d.load(r, c, rate, searchStep, spec.limit, false)
			steps++
			if ok = ph.within(spec.limit); ok {
				best = ph.achieved()
			} else {
				time.Sleep(100 * time.Millisecond) // let the backlog drain
			}
		}
		if ok {
			lo = rate
		} else {
			hi = rate
		}
	}
	return best, steps
}

// deployMedian sets the service up setupReps times and keeps the last
// deployment; it returns the median unstolen set-up time and the median
// wall time of each step.
func deployMedian(r *run, reg *obs.Registry, spec classifySpec) (*deployment, float64, map[string]float64, error) {
	var d *deployment
	var totals []float64
	steps := map[string][]float64{}
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
		}
		clk := startHostClock()
		var err error
		if d, err = deploy(r.seed, reg, r.tr); err != nil {
			return nil, 0, nil, err
		}
		_, t := clk.stop()
		totals = append(totals, t)
		for k, v := range d.steps {
			steps[k] = append(steps[k], v)
		}
	}
	med := map[string]float64{}
	for k, v := range steps {
		med[k] = median(v)
	}
	if err := d.prepare(r.seed, spec.perBody); err != nil {
		d.close()
		return nil, 0, nil, err
	}
	return d, median(totals), med, nil
}

func runClassify(r *run, spec classifySpec) error {
	if r.tr != nil {
		return traceClassify(r, spec)
	}
	d, setup, _, err := deployMedian(r, nil, spec)
	if err != nil {
		return err
	}
	defer d.close()
	r.put("setup_s", "s", setup)
	c := newClient()
	defer c.CloseIdleConnections()
	// Warm the connections and the server's code paths.
	d.load(r, c, spec.lowRPS, 200*time.Millisecond, time.Second, true)

	total := time.Duration(r.seconds * float64(time.Second))
	grace := time.Second
	r.rss = startRSS()
	clk := startHostClock()
	low := d.load(r, c, spec.lowRPS, time.Duration(lowShare*float64(total)), grace, true)
	lowWall, lowUnstolen := clk.stop()
	high := d.load(r, c, spec.highRPS, time.Duration(highShare*float64(total)), grace, true)
	clk = startHostClock()
	capacity := d.saturate(r, c, time.Duration(closedShare*float64(total)))
	wall, unstolen := clk.stop()
	budget := total - time.Duration((lowShare+highShare+closedShare)*float64(total))
	maxRPS, steps := d.searchRate(r, c, spec, high, capacity, budget)

	// Serving is CPU work, like fig10-digits and fleet-dim, so latency and
	// capacity are taken on unstolen time too.
	r.put("p50_ms", "ms", quantile(low.lat, 0.5)*lowUnstolen/lowWall)
	r.put("work_per_s", "1/s", capacity*wall/unstolen)
	r.detail("max_rps", maxRPS)
	r.detail("low.steal_share", 1-lowUnstolen/lowWall)
	r.detail("closed_loop.steal_share", 1-unstolen/wall)
	for name, ph := range map[string]*phase{"low": low, "high": high} {
		r.detail(name+".rate_rps", ph.rate)
		r.detail(name+".samples", float64(len(ph.lat)))
		r.detail(name+".p50_ms", quantile(ph.lat, 0.5))
		r.detail(name+".tail_ms", ph.tail())
		r.detail(name+".tail_pct", 100*tailP(len(ph.lat)))
		r.detail(name+".p90_ms", quantile(ph.lat, 0.9))
		r.detail(name+".gen_late_p99_ms", quantile(ph.late, 0.99))
		r.detail(name+".pending", float64(ph.pending))
	}
	r.detail("max_rps.search_steps", float64(steps))
	r.detail("wall.closed_loop_rps", capacity)
	return nil
}

// traceClassify is the traced run: set-up steps, the registry's batching
// figures under load, client-side round-trip spans, and — on an idle
// server — one call at a time into each layer under the HTTP round trip:
// the in-process handler, serve.Server.ClassifyBatch, and the executor's
// Forward at batch 1 and 16. It reports the overhead of the client spans
// against an untraced phase at the same rate.
func traceClassify(r *run, spec classifySpec) error {
	reg := obs.NewRegistry()
	d, _, steps, err := deployMedian(r, reg, spec)
	if err != nil {
		return err
	}
	defer d.close()
	for _, k := range []string{"setup.dataset", "setup.fit", "setup.convert", "setup.container"} {
		r.put(k+"_s", "s", steps[k])
	}
	c := newClient()
	defer c.CloseIdleConnections()
	d.load(r, c, spec.lowRPS, 200*time.Millisecond, time.Second, true)

	// Untraced and traced phases at the low rate, alternating, for the
	// tracing overhead; then a traced phase at the high rate.
	dur := time.Duration(0.2 * r.seconds * float64(time.Second))
	var plain, traced []float64
	before, rt0 := reg.Snapshot(), readRT()
	for i := 0; i < 2; i++ {
		plain = append(plain, quantile(d.load(r, c, spec.lowRPS, dur/2, time.Second, true).lat, 0.5))
		traced = append(traced, quantile(d.loadTraced(r, c, spec.lowRPS, dur/2).lat, 0.5))
	}
	high := d.loadTraced(r, c, spec.highRPS, dur)
	after := reg.Snapshot()
	r.putRT(rt0, readRT())
	bs, bs0 := after.Histograms["serve.batch_size"], before.Histograms["serve.batch_size"]
	if n := bs.Count - bs0.Count; n > 0 {
		r.put("serve.batch_size_mean", "count", (bs.Sum-bs0.Sum)/float64(n))
	}
	r.put("serve.batch_busy_s", "s", after.Histograms["serve.batch_seconds"].Sum-before.Histograms["serve.batch_seconds"].Sum)
	r.put("gen.late_p99_ms", "ms", quantile(high.late, 0.99))
	r.put("trace.overhead", "ratio", median(traced)/median(plain)-1)

	// One call at a time on the now idle server.
	calls := 200
	if spec.perBody > 1 {
		calls = 50
	}
	h := d.srv.Handler()
	ex1, ex16 := d.model.NewExecutor(nil, 1), d.model.NewExecutor(nil, serveBatch)
	var batch16 []float64
	for _, x := range d.inputs[:serveBatch] {
		batch16 = append(batch16, x...)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < calls; i++ {
		b := i % len(d.bodies)
		sp := r.tr.begin("serve.handler", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(d.bodies[b])))
		r.tr.end(sp)
		r.op(1)
		_ = d.checkBody(r, b, rec.Code, rec.Body.Bytes()) // counts its own failures
	}
	runtime.ReadMemStats(&ms1)
	r.put("serve.handler_allocs", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(calls))
	r.put("go.alloc_kb_per_req", "KB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(calls)/1024)
	for i := 0; i < calls; i++ {
		b := i % len(d.bodies)
		xs := make([][]float64, 0, spec.perBody)
		for _, k := range d.members[b] {
			xs = append(xs, d.inputs[k])
		}
		sp := r.tr.begin("serve.classify", nil)
		got, err := d.srv.ClassifyBatch(xs)
		r.tr.end(sp)
		r.op(1)
		if err == nil {
			err = checkReply(d.want, d.members[b], got)
		}
		if err != nil {
			r.wrongOutput()
		}

		sp = r.tr.begin("nn.int8_forward.b1", nil)
		ex1.Forward(d.inputs[i%len(d.inputs)], 1)
		r.tr.end(sp)
		sp = r.tr.begin("nn.int8_forward.b16", nil)
		ex16.Forward(batch16, serveBatch)
		r.tr.end(sp)

		sp = r.tr.begin("net.roundtrip", nil)
		_ = d.send(context.Background(), r, c, b) // counts its own failures
		r.tr.end(sp)
		r.op(1)
	}
	handler, classify := r.tr.medianUS("serve.handler"), r.tr.medianUS("serve.classify")
	fwd1, fwd16 := r.tr.medianUS("nn.int8_forward.b1"), r.tr.medianUS("nn.int8_forward.b16")
	round := r.tr.medianUS("net.roundtrip")
	fwd := fwd1
	if spec.perBody > 1 {
		fwd = fwd16
	}
	r.put("serve.handler_us", "us", handler)
	r.put("serve.classify_us", "us", classify)
	r.put("serve.roundtrip_us", "us", round)
	r.put("nn.int8_forward_us.b1", "us", fwd1)
	r.put("nn.int8_forward_us.b16", "us", fwd16)
	r.put("serve.codec_us", "us", handler-classify)
	r.put("serve.queue_us", "us", classify-fwd)
	r.put("net.transport_us", "us", round-handler)
	return nil
}

// loadTraced is load with one client span per request round trip.
func (d *deployment) loadTraced(r *run, c *http.Client, rate float64, dur time.Duration) *phase {
	t := &tracedTransport{base: c.Transport, tr: r.tr}
	tc := &http.Client{Transport: t}
	return d.load(r, tc, rate, dur, time.Second, true)
}

// tracedTransport spans every round trip through base.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tr.begin("net.request", nil)
	resp, err := t.base.RoundTrip(req)
	t.tr.end(sp)
	return resp, err
}
