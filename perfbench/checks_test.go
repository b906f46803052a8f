package main

import (
	"math"
	"sync"
	"testing"

	"solarml/internal/evo"
	"solarml/internal/experiments"
	"solarml/internal/nas"
	"solarml/internal/nn"
	"solarml/internal/pareto"
	"solarml/internal/serve"
)

// The self-tests feed each output check one good and one corrupted output:
// a check that passes the corrupted one would let a wrong program through.

var fig10Default struct {
	once sync.Once
	res  *experiments.Fig10Result
	err  error
}

// defaultFig10 is experiments.Fig10 on the default seed, computed once per
// test binary.
func defaultFig10(t *testing.T) *experiments.Fig10Result {
	t.Helper()
	fig10Default.once.Do(func() {
		fig10Default.res, fig10Default.err = experiments.Fig10(nas.TaskGesture, experiments.ScalePaper, 1)
	})
	if fig10Default.err != nil {
		t.Fatal(fig10Default.err)
	}
	return fig10Default.res
}

func TestCheckReplyRejectsCorruption(t *testing.T) {
	want := []serve.Result{
		{Class: 1, Logits: []float64{-0.5, 2.25, 0.125}},
		{Class: 2, Logits: []float64{0.5, -1, 3}},
	}
	members := []int{1, 0}
	reply := func() []serve.Result {
		out := make([]serve.Result, len(members))
		for i, k := range members {
			out[i] = serve.Result{Class: want[k].Class, Logits: append([]float64(nil), want[k].Logits...)}
		}
		return out
	}
	if err := checkReply(want, members, reply()); err != nil {
		t.Fatalf("good reply rejected: %v", err)
	}
	corrupt := map[string]func([]serve.Result) []serve.Result{
		"class":   func(r []serve.Result) []serve.Result { r[0].Class = 0; return r },
		"logit":   func(r []serve.Result) []serve.Result { r[1].Logits[2] = math.Nextafter(r[1].Logits[2], 0); return r },
		"missing": func(r []serve.Result) []serve.Result { return r[:1] },
		"short":   func(r []serve.Result) []serve.Result { r[0].Logits = r[0].Logits[:2]; return r },
	}
	for name, fn := range corrupt {
		if checkReply(want, members, fn(reply())) == nil {
			t.Errorf("%s: corrupted reply passed the check", name)
		}
	}
}

func TestFig10ChecksRejectCorruption(t *testing.T) {
	good := defaultFig10(t)
	if err := checkBestEntries(good); err != nil {
		t.Fatalf("best entries of the real result rejected: %v", err)
	}
	if err := checkFig10Target(good); err != nil {
		t.Fatalf("target check rejected the real result: %v", err)
	}
	if err := checkFingerprint(fig10Fingerprint(good), fig10Fingerprints[1]); err != nil {
		t.Fatalf("real result: %v", err)
	}

	// copyResult returns a copy whose slices can be changed freely.
	copyResult := func() *experiments.Fig10Result {
		c := *good
		c.ENASEntries = append([]evo.Entry(nil), good.ENASEntries...)
		c.ENASFront = append([]pareto.Point(nil), good.ENASFront...)
		c.MuNASBest = append([]pareto.Point(nil), good.MuNASBest...)
		return &c
	}

	bad := copyResult()
	bad.ENASEntries[1].Res.Accuracy = 0.5
	if checkBestEntries(bad) == nil {
		t.Error("eNAS winner below the accuracy cap passed")
	}

	bad = copyResult()
	huge := bad.ENASEntries[0].Cand.Clone()
	huge.Arch.Body = append(huge.Arch.Body, nn.LayerSpec{Kind: nn.KindDense, Out: 100_000})
	bad.ENASEntries[0].Cand = huge
	if checkBestEntries(bad) == nil {
		t.Error("eNAS winner over the memory limit passed")
	}

	bad = copyResult()
	for i := range bad.ENASFront {
		bad.ENASFront[i].Acc = math.Min(bad.ENASFront[i].Acc, fig10Target-0.01)
	}
	if checkFig10Target(bad) == nil {
		t.Error("eNAS front below the target accuracy passed")
	}

	bad = copyResult()
	for i := range bad.ENASFront {
		bad.ENASFront[i].Energy *= 1000
	}
	if checkFig10Target(bad) == nil {
		t.Error("eNAS front costlier than the µNAS mean passed")
	}

	bad = copyResult()
	bad.MuNASBest[3].Energy = math.Nextafter(bad.MuNASBest[3].Energy, 1)
	if checkFingerprint(fig10Fingerprint(bad), fig10Fingerprints[1]) == nil {
		t.Error("changed µNAS point kept the recorded fingerprint")
	}
}

func TestFleetCheckRejectsCorruption(t *testing.T) {
	fs, _, _, err := runFleetOnce(fleetDevices, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := countsOf(fs)
	if err := checkFleetCounts(got, fleetRecorded[1]); err != nil {
		t.Fatalf("real fleet rejected: %v", err)
	}
	for name, fn := range map[string]func(*fleetCounts){
		"outcome":      func(c *fleetCounts) { c.Completed++ },
		"exit":         func(c *fleetCounts) { c.Exits[2]-- },
		"interactions": func(c *fleetCounts) { c.Interactions++ },
	} {
		bad := got
		fn(&bad)
		if checkFleetCounts(bad, fleetRecorded[1]) == nil {
			t.Errorf("%s: corrupted counts passed", name)
		}
	}
}
