package main

import (
	"fmt"
	"math/rand"
	"time"

	"solarml/internal/firmware"
	"solarml/internal/nn"
	"solarml/internal/obs"
	"solarml/internal/obs/energy"
	"solarml/internal/obs/fleetobs"
)

// The dim-light fleet: cmd/lifetime -devices 2000 -hours 168 -lux 100
// -gap 60 -ladder, with the sharded ledger and the inspector attached.
const (
	fleetDevices = 2000
	fleetHours   = 168
	fleetLux     = 100
	fleetGapS    = 60
	// fleetWarmup is the size of the fleet each set-up runs once to warm
	// the worker pool and the heap.
	fleetWarmup = 100
	// fleetSample is how many devices the traced run replays one call at a
	// time.
	fleetSample = 200
)

// fleetBase is cmd/lifetime's device configuration with the 3-rung ladder.
func fleetBase() firmware.Config {
	cfg := firmware.DefaultConfig()
	cfg.ExitMACs = []map[nn.LayerKind]int64{
		{nn.KindConv: 40_000, nn.KindDense: 5_000},
		{nn.KindConv: 200_000, nn.KindDense: 20_000},
		{nn.KindConv: 900_000, nn.KindDense: 60_000},
	}
	cfg.Lux = firmware.OfficeDay(fleetLux)
	return cfg
}

// fleetCounts is what the fleet check compares: outcome, exit and
// interaction counts.
type fleetCounts struct {
	Interactions                                           int
	Completed, RejectedVTheta, BrownOut, LowSupercap, Weak int
	Exits                                                  [3]int
}

func countsOf(fs *firmware.FleetStats) fleetCounts {
	return fleetCounts{
		Interactions:   fs.Interactions,
		Completed:      fs.Counts[firmware.Completed],
		RejectedVTheta: fs.Counts[firmware.RejectedVTheta],
		BrownOut:       fs.Counts[firmware.BrownOut],
		LowSupercap:    fs.Counts[firmware.BlockedLowSupercap],
		Weak:           fs.Counts[firmware.BlockedWeakLight],
		Exits:          [3]int{fs.ExitCounts[0], fs.ExitCounts[1], fs.ExitCounts[2]},
	}
}

func checkFleetCounts(got, want fleetCounts) error {
	if got != want {
		return fmt.Errorf("counts %+v, recorded %+v", got, want)
	}
	return nil
}

// runFleetOnce runs devices devices from seed as cmd/lifetime does: striped
// ledger and live inspector attached. It returns the run's wall and
// unstolen time.
func runFleetOnce(devices int, seed int64) (fs *firmware.FleetStats, wall, unstolen float64, err error) {
	clk := startHostClock()
	stripes := firmware.FleetWorkers(0)
	led := energy.NewShardedLedger(obs.NewRegistry(), stripes)
	in := fleetobs.NewInspector("devices", devices, stripes)
	in.SetAccounts(led.AccountTotals)
	fs, err = firmware.RunFleet(firmware.FleetConfig{
		Base: fleetBase(), Devices: devices, DurationS: fleetHours * 3600,
		MeanGapS: fleetGapS, Seed: seed, Ledger: led, Inspect: in,
	})
	in.Finish()
	wall, unstolen = clk.stop()
	return fs, wall, unstolen, err
}

func runFleet(r *run) error {
	if r.tr != nil {
		return traceFleet(r)
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		_, _, t, err := runFleetOnce(fleetWarmup, r.seed)
		if err != nil {
			return err
		}
		setups = append(setups, t)
	}
	r.put("setup_s", "s", median(setups))

	var walls, times []float64
	var first fleetCounts
	deviceS := 0.0
	r.rss = startRSS()
	for start := time.Now(); len(walls) < 2 || time.Since(start).Seconds()+mean(walls) <= r.seconds; {
		fs, wall, t, err := runFleetOnce(fleetDevices, r.seed)
		if err != nil {
			return err
		}
		r.op(1)
		walls, times = append(walls, wall), append(times, t)
		deviceS += fs.DeviceSeconds
		got := countsOf(fs)
		if len(walls) == 1 {
			first = got
			fmt.Printf("fleet counts %+v\n", got)
			if want, ok := fleetRecorded[r.seed]; ok {
				r.check("fleet.counts", checkFleetCounts(got, want))
			} else {
				fmt.Printf("fleet: no recorded counts for seed %d\n", r.seed)
			}
		} else if got != first {
			r.check("fleet.repeatable", checkFleetCounts(got, first))
		}
	}
	years := deviceS / (365 * 24 * 3600)
	r.put("work_per_s", "1/s", years/sum(times))
	r.put("p50_ms", "ms", 1e3*median(times))
	r.detail("wall.work_per_s", years/sum(walls))
	r.detail("wall.p50_ms", 1e3*median(walls))
	r.detail("wall.slowest_ms", 1e3*quantile(walls, 1))
	r.detail("fleet.runs", float64(len(walls)))
	return nil
}

// traceFleet is the traced run: one untraced fleet for the runtime's
// figures, then a sample of devices replayed one call at a time through
// firmware.New, PoissonArrivals and Simulator.Run — untraced, traced, and
// with a ledger stripe against a nil Energy.
func traceFleet(r *run) error {
	rt0 := readRT()
	if _, _, _, err := runFleetOnce(fleetDevices, r.seed); err != nil {
		return err
	}
	r.op(1)
	r.putRT(rt0, readRT())

	led := energy.NewShardedLedger(obs.NewRegistry(), 1)
	var plain, ledger []float64
	for i := 0; i < 3; i++ {
		for _, l := range []*energy.Ledger{nil, led.Stripe(0)} {
			wall, _, err := replayFleet(r, l, nil)
			if err != nil {
				return err
			}
			if l == nil {
				plain = append(plain, wall)
			} else {
				ledger = append(ledger, wall)
			}
		}
	}
	r.put("obs.ledger_overhead", "ratio", median(ledger)/median(plain)-1)

	wall, interactions, err := replayFleet(r, nil, r.tr)
	if err != nil {
		return err
	}
	r.put("trace.overhead", "ratio", wall/median(plain)-1)
	r.put("firmware.new_us", "us", r.tr.medianUS("firmware.new"))
	r.put("firmware.arrivals_us", "us", r.tr.medianUS("firmware.arrivals"))
	r.put("firmware.device_run_us", "us", r.tr.medianUS("firmware.run"))
	r.put("firmware.interactions_per_s", "1/s", float64(interactions)/r.tr.total("firmware.run"))
	return nil
}

// replayFleet runs fleetSample devices one after another on this
// goroutine, each from its own seeded stream, booking energy on l (nil: no
// ledger) and spanning each call on tr. It returns the unstolen wall time
// and the interactions simulated.
func replayFleet(r *run, l *energy.Ledger, tr *tracer) (float64, int, error) {
	cfg := fleetBase()
	cfg.Energy = l
	interactions := 0
	clk := startHostClock()
	for i := 0; i < fleetSample; i++ {
		rng := rand.New(rand.NewSource(r.seed + int64(i)))
		dev := tr.begin("firmware.device", nil)
		sp := tr.begin("firmware.new", dev)
		sim, err := firmware.New(cfg)
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin("firmware.arrivals", dev)
		times := firmware.PoissonArrivals(rng, fleetHours*3600, fleetGapS)
		tr.end(sp)
		sp = tr.begin("firmware.run", dev)
		st, err := sim.Run(fleetHours*3600, times)
		tr.end(sp)
		tr.end(dev)
		if err != nil {
			return 0, 0, err
		}
		r.op(1)
		interactions += st.Interactions
	}
	_, t := clk.stop()
	return t, interactions, nil
}
