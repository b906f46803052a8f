package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"solarml/internal/enas"
	"solarml/internal/evo"
	"solarml/internal/experiments"
	"solarml/internal/munas"
	"solarml/internal/nas"
	"solarml/internal/obs"
	"solarml/internal/pareto"
)

// fig10Target is the accuracy the eNAS front must reach, at which it must
// beat the mean µNAS energy (within fig10Tol, as cmd/solarml reports it).
const (
	fig10Target = 0.82
	fig10Tol    = 0.03
	calibrateN  = 300 // candidates measured per energy-model calibration
	// fig10Procs is the GOMAXPROCS the workload runs at. Fig 10's searches
	// fan out to 4 workers each, which the 2-vCPU reference host did not
	// reliably use: in one sitting a call took 4.5 s at GOMAXPROCS 2 against
	// 4.4 s at 1, for about 75% more CPU time (3.1 s of it in the kernel
	// against 0.8 s). At 2 a call's time also hangs on whatever else holds
	// the second vCPU: while another CPU-bound process ran beside it, calls
	// at 2 took 9.7–11.3 s and the calls at 1 between them 4.5–4.8 s. At 1
	// the process's CPU time is the call's time on the CPU (cpuClock).
	fig10Procs = 1
	// fig10Mix is how many inputs a run cycles through (fig10Seed), each
	// weighted alike. Memory use differs by input — the mean RSS of one
	// call ranged 99–137 MB across seven seeds, 14% standard deviation over
	// forty — so a run of one input would carry that input's figure rather
	// than the program's.
	fig10Mix = 5
)

func runFig10(r *run) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fig10Procs))
	r.detail("fig10.gomaxprocs", fig10Procs)
	if r.tr != nil {
		return traceFig10(r)
	}
	// Set-up: build the search space and fit the eNAS energy model every
	// search scores with.
	space := nas.GestureSpace()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		clk := startCPUClock()
		if _, err := nas.CalibrateEnergy(space, calibrateN, true, true, fig10Seed(r.seed, i)); err != nil {
			return err
		}
		_, t := clk.stop()
		setups = append(setups, t)
	}
	r.put("setup_s", "s", median(setups))
	var walls, times []float64
	rss := make([][]float64, fig10Mix) // mean RSS of each call, by input
	evals := 0
	var firsts []uint64 // fingerprint of each input's first call
	for start := time.Now(); len(walls) < fig10Mix || time.Since(start).Seconds()+mean(walls) <= r.seconds; {
		i := len(walls)
		seed := fig10Seed(r.seed, i)
		sampler := startRSS()
		res, wall, t, snap, err := fig10Once(seed)
		if err != nil {
			return err
		}
		rss[i%fig10Mix] = append(rss[i%fig10Mix], sampler.meanMB())
		r.op(1)
		fmt.Printf("call %d seed %d: %.1f ms CPU, %.1f ms wall\n", i, seed, 1e3*t, 1e3*wall)
		walls, times = append(walls, wall), append(times, t)
		evals += int(snap.Counters["enas.evaluations"] + snap.Counters["munas.evaluations"])
		fp := fig10Fingerprint(res)
		if i < fig10Mix {
			firsts = append(firsts, fp)
			checkFig10(r, res, fp, seed)
		} else if fp != firsts[i%fig10Mix] {
			r.check("fig10.repeatable", fmt.Errorf("seed %d: fingerprint %016x, first call gave %016x", seed, fp, firsts[i%fig10Mix]))
		}
	}
	perInput := 0.0
	for _, mbs := range rss {
		perInput += mean(mbs) / fig10Mix
	}
	r.put("rss_mb", "MB", perInput)
	r.put("work_per_s", "1/s", float64(evals)/sum(times))
	r.put("p50_ms", "ms", 1e3*median(times))
	r.detail("wall.work_per_s", float64(evals)/sum(walls))
	r.detail("wall.p50_ms", 1e3*median(walls))
	r.detail("wall.slowest_ms", 1e3*quantile(walls, 1))
	r.detail("fig10.calls", float64(len(walls)))
	r.detail("fig10.evaluations_per_call", float64(evals)/float64(len(walls)))
	return nil
}

// fig10Seed is the input seed of a run's call i: the run cycles through
// fig10Mix seeds, disjoint from those of every other run seed.
func fig10Seed(seed int64, i int) int64 { return seed*fig10Mix + int64(i%fig10Mix) }

// fig10Once runs experiments.Fig10 with a fresh registry attached, whose
// counters give the number of evaluations. It returns the call's wall time
// and the process's CPU time over it (cpuClock).
func fig10Once(seed int64) (res *experiments.Fig10Result, wall, cpu float64, snap obs.Snapshot, err error) {
	reg := obs.NewRegistry()
	experiments.SetObs(nil, reg)
	defer experiments.SetObs(nil, nil)
	clk := startCPUClock()
	res, err = experiments.Fig10(nas.TaskGesture, experiments.ScalePaper, seed)
	wall, cpu = clk.stop()
	return res, wall, cpu, reg.Snapshot(), err
}

// checkFig10 runs the output checks on the Fig 10 result of seed.
func checkFig10(r *run, res *experiments.Fig10Result, fp uint64, seed int64) {
	fmt.Printf("fig10 seed %d fingerprint %016x\n", seed, fp)
	r.check("fig10.best_entries", checkBestEntries(res))
	r.check("fig10.target", checkFig10Target(res))
	if want, ok := fig10Fingerprints[seed]; ok {
		r.check("fig10.fingerprint", checkFingerprint(fp, want))
	} else {
		fmt.Printf("fig10: no recorded fingerprint for seed %d\n", seed)
	}
}

// checkBestEntries verifies that every reported best entry passes the
// static constraints, that the eNAS winners and every front point pass the
// accuracy cap. A µNAS best entry may miss the cap: for a sensing
// configuration with no feasible model, µNAS reports its most accurate
// attempt.
func checkBestEntries(res *experiments.Fig10Result) error {
	if len(res.ENASEntries) != 3 || len(res.MuNASEntries) != 20 {
		return fmt.Errorf("%d eNAS and %d µNAS best entries, want 3 and 20", len(res.ENASEntries), len(res.MuNASEntries))
	}
	ct := nas.DefaultConstraints(res.Task)
	for i, e := range append(append([]evo.Entry(nil), res.ENASEntries...), res.MuNASEntries...) {
		if err := ct.CheckStatic(e.Cand); err != nil {
			return fmt.Errorf("best entry %d: %w", i, err)
		}
		if err := ct.CheckAccuracy(e.Res.Accuracy); err != nil && i < len(res.ENASEntries) {
			return fmt.Errorf("eNAS best entry %d: %w", i, err)
		}
	}
	for _, p := range append(append([]pareto.Point(nil), res.ENASFront...), res.MuNASFront...) {
		if err := ct.CheckAccuracy(p.Acc); err != nil {
			return fmt.Errorf("front point %d: %w", p.Tag, err)
		}
	}
	return nil
}

// checkFig10Target verifies the paper's headline: the eNAS front reaches
// the target accuracy and beats the mean µNAS energy there.
func checkFig10Target(res *experiments.Fig10Result) error {
	if _, ok := pareto.CheapestAbove(res.ENASFront, fig10Target); !ok {
		return fmt.Errorf("eNAS front does not reach accuracy %.2f", fig10Target)
	}
	enasE, munasE, ratio, ok := res.EnergyRatioAt(fig10Target, fig10Tol)
	if !ok {
		return fmt.Errorf("no µNAS model within %.2f of accuracy %.2f", fig10Tol, fig10Target)
	}
	if ratio <= 1 {
		return fmt.Errorf("eNAS %.3g J does not beat the µNAS mean %.3g J at accuracy %.2f", enasE, munasE, fig10Target)
	}
	return nil
}

func checkFingerprint(got, want uint64) error {
	if got != want {
		return fmt.Errorf("fingerprint %016x, recorded %016x", got, want)
	}
	return nil
}

// fig10Fingerprint hashes every reported point and best entry of a Fig 10
// result.
func fig10Fingerprint(res *experiments.Fig10Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, pts := range [][]pareto.Point{res.ENASBest, res.ENASFront, res.MuNASBest, res.MuNASFront} {
		put(uint64(len(pts)))
		for _, p := range pts {
			put(math.Float64bits(p.Acc))
			put(math.Float64bits(p.Energy))
			put(uint64(p.Tag))
		}
	}
	for _, es := range [][]evo.Entry{res.ENASEntries, res.MuNASEntries} {
		put(uint64(len(es)))
		for _, e := range es {
			put(e.Cand.Fingerprint())
			put(math.Float64bits(e.Res.Accuracy))
			put(math.Float64bits(e.Res.EnergyJ))
			put(uint64(e.Res.TotalMACs))
		}
	}
	return h.Sum64()
}

// countingEval wraps the search evaluator: it counts calls and busy time,
// and spans each call under the current search.
type countingEval struct {
	inner  nas.Evaluator
	tr     *tracer
	parent *span
	calls  *atomic.Int64
	busy   *atomic.Int64 // ns
}

func (c countingEval) Evaluate(cand *nas.Candidate) (nas.Result, error) {
	sp := c.tr.begin("nas.evaluate", c.parent)
	t0 := time.Now()
	res, err := c.inner.Evaluate(cand)
	c.busy.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	c.tr.end(sp)
	return res, err
}

// fig10Trace is what the recomposed Fig 10 measured beside its result.
type fig10Trace struct {
	calls, busy atomic.Int64
	enasEnergy  *nas.FittedEnergy
	history     []evo.Entry // every evaluated entry, eNAS then µNAS
}

// recomposeFig10 is experiments.Fig10 for the gesture task at paper scale,
// rebuilt from the public calls it makes — CalibrateEnergy, enas.Search and
// munas.Search — with the evaluator wrapped and each call spanned on tr.
// The equivalence test pins that it returns what experiments.Fig10 does.
func recomposeFig10(seed int64, tr *tracer) (*experiments.Fig10Result, *fig10Trace, error) {
	const task = nas.TaskGesture
	ft := &fig10Trace{}
	root := tr.begin("experiments.fig10", nil)
	defer tr.end(root)
	space := nas.GestureSpace()
	truth := nas.NewTruthEnergy()
	ct := nas.DefaultConstraints(task)
	wrap := func(e nas.Evaluator, parent *span) nas.Evaluator {
		return countingEval{inner: e, tr: tr, parent: parent, calls: &ft.calls, busy: &ft.busy}
	}
	point := func(e evo.Entry, tag int) pareto.Point {
		return pareto.Point{Acc: e.Res.Accuracy, Energy: truth.SensingEnergy(e.Cand) + truth.InferenceEnergy(e.Res.MACsByKind), Tag: tag}
	}

	sp := tr.begin("nas.calibrate", root)
	enasEnergy, err := nas.CalibrateEnergy(space, calibrateN, true, true, seed)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("nas.calibrate", root)
	munasEnergy, err := nas.CalibrateEnergy(space, calibrateN, false, false, seed+1)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	ft.enasEnergy = enasEnergy

	res := &experiments.Fig10Result{Task: task}
	var enasAll []pareto.Point
	for i, lambda := range []float64{0, 0.5, 1} {
		cfg := enas.DefaultConfig(task, lambda)
		cfg.Seed, cfg.Workers, cfg.Cache = seed+int64(10+i), 4, true
		sp := tr.begin("enas.search", root)
		out, err := enas.Search(space, wrap(nas.NewSurrogateEvaluator(enasEnergy), sp), cfg)
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		res.ENASLambdas = append(res.ENASLambdas, lambda)
		res.ENASBest = append(res.ENASBest, point(out.Best, i))
		res.ENASEntries = append(res.ENASEntries, out.Best)
		ft.history = append(ft.history, out.History...)
		for j, e := range out.History {
			if ct.CheckAccuracy(e.Res.Accuracy) == nil {
				enasAll = append(enasAll, point(e, i*100000+j))
			}
		}
	}
	res.ENASFront = pareto.Front(enasAll)

	rng := rand.New(rand.NewSource(seed + 99))
	const n = 20
	sensings := make([]*nas.Candidate, n)
	for i := range sensings {
		sensings[i] = space.RandomCandidate(rng)
	}
	outs := make([]*munas.Outcome, n)
	errs := make([]error, n)
	all := tr.begin("munas.searches", root)
	evo.ForEach(4, n, func(i int) {
		cfg := munas.DefaultConfig(task)
		cfg.Seed, cfg.Workers, cfg.Cache = seed+int64(100+i), 4, true
		sp := tr.begin("munas.search", all)
		outs[i], errs[i] = munas.Search(space, sensings[i], wrap(nas.NewSurrogateEvaluator(munasEnergy), sp), cfg)
		tr.end(sp)
	})
	tr.end(all)
	var munasAll []pareto.Point
	for i, out := range outs {
		if errs[i] != nil {
			return nil, nil, errs[i]
		}
		res.MuNASBest = append(res.MuNASBest, point(out.BestAccuracy, i))
		res.MuNASEntries = append(res.MuNASEntries, out.BestAccuracy)
		ft.history = append(ft.history, out.History...)
		for j, e := range out.History {
			if ct.CheckAccuracy(e.Res.Accuracy) == nil {
				munasAll = append(munasAll, point(e, i*100000+j))
			}
		}
	}
	res.MuNASFront = pareto.Front(munasAll)
	return res, ft, nil
}

// replayCap bounds the candidates the traced run replays per call.
const replayCap = 400

// traceFig10 is the traced run: one untraced experiments.Fig10 for the
// registry's search counters and the runtime's figures; the recomposed,
// spanned Fig 10 and a second untraced call, for the overhead; then the
// distinct candidates of the history replayed one call at a time through
// CheckStatic, Arch.Build, Arch.EstimateParams and the surrogate evaluator.
func traceFig10(r *run) error {
	rt0 := readRT()
	plain, _, base, snap, err := fig10Once(r.seed)
	if err != nil {
		return err
	}
	r.putRT(rt0, readRT())
	hits, misses := snap.Counters["evo.cache_hits"], snap.Counters["evo.cache_misses"]
	if hits+misses > 0 {
		r.put("evo.memo_hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	}
	r.put("evo.constraint_rejects", "count", float64(snap.Counters["enas.constraint_rejects"]+snap.Counters["munas.constraint_rejects"]))

	clk := startCPUClock()
	res, ft, err := recomposeFig10(r.seed, r.tr)
	if err != nil {
		return err
	}
	_, traced := clk.stop()
	r.op(2)
	// A second untraced call after the traced one, so warm-up does not
	// count against either side.
	_, _, again, _, err := fig10Once(r.seed)
	if err != nil {
		return err
	}
	r.put("trace.overhead", "ratio", 2*traced/(base+again)-1)
	r.check("fig10.recomposed", checkFingerprint(fig10Fingerprint(res), fig10Fingerprint(plain)))
	r.put("nas.calibrate_s", "s", r.tr.total("nas.calibrate"))
	r.put("enas.search_s", "s", r.tr.total("enas.search"))
	r.put("munas.search_s", "s", r.tr.total("munas.searches"))
	r.put("nas.eval_calls", "count", float64(ft.calls.Load()))
	r.put("nas.eval_busy_s", "s", float64(ft.busy.Load())/1e9)

	seen := map[uint64]bool{}
	var cands []*nas.Candidate
	for _, e := range ft.history {
		if fp := e.Cand.Fingerprint(); !seen[fp] && len(cands) < replayCap {
			seen[fp] = true
			cands = append(cands, e.Cand)
		}
	}
	if len(cands) == 0 {
		return errors.New("fig10: empty search history")
	}
	ct := nas.DefaultConstraints(nas.TaskGesture)
	eval := nas.NewSurrogateEvaluator(ft.enasEnergy)
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var buildBytes uint64
	for _, c := range cands {
		sp := r.tr.begin("nas.check_static", nil)
		err := ct.CheckStatic(c)
		r.tr.end(sp)
		r.check("fig10.replay_static", err)

		metrics.Read(alloc)
		a0 := alloc[0].Value.Uint64()
		sp = r.tr.begin("nn.arch_build", nil)
		_, err = c.Arch.Build()
		r.tr.end(sp)
		metrics.Read(alloc)
		buildBytes += alloc[0].Value.Uint64() - a0
		r.check("fig10.replay_build", err)

		// EstimateParams is sub-microsecond: time a run of calls.
		sp = r.tr.begin("nn.estimate_params_x100", nil)
		for k := 0; k < 100; k++ {
			_, err = c.Arch.EstimateParams()
		}
		r.tr.end(sp)
		r.check("fig10.replay_params", err)

		sp = r.tr.begin("nas.surrogate", nil)
		_, err = eval.Evaluate(c)
		r.tr.end(sp)
		r.check("fig10.replay_surrogate", err)
	}
	r.put("nas.check_static_us", "us", r.tr.medianUS("nas.check_static"))
	r.put("nn.arch_build_us", "us", r.tr.medianUS("nn.arch_build"))
	r.put("nn.arch_build_kb", "KB", float64(buildBytes)/float64(len(cands))/1024)
	r.put("nn.estimate_params_ns", "ns", r.tr.medianUS("nn.estimate_params_x100")*1e3/100)
	r.put("nas.surrogate_us", "us", r.tr.medianUS("nas.surrogate"))
	r.detail("replay.candidates", float64(len(cands)))
	return nil
}
