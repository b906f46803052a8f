//go:build !race

package nas

import (
	"runtime"
	"testing"

	"solarml/internal/dataset"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// TestSearchPathAllocs pins that the per-candidate search path screens and
// scores an architecture from its plan alone: CheckStatic plus a surrogate
// evaluation allocate far less than the candidate's Dense weight tensor
// (1080×32 float64s, 270 KB), let alone a built network with gradient and
// momentum buffers. (Excluded under -race, whose instrumentation changes
// allocation behaviour.)
func TestSearchPathAllocs(t *testing.T) {
	c := &Candidate{Task: TaskGesture,
		Gesture: dataset.GestureConfig{Channels: 6, RateHz: 80,
			Quant: quant.Config{Res: quant.Int, Bits: 8}},
		Arch: &nn.Arch{Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindDense, Out: 32},
			{Kind: nn.KindReLU},
		}}}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	ct := DefaultConstraints(TaskGesture)
	eval := NewSurrogateEvaluator(NewTruthEnergy())
	run := func() {
		if err := ct.CheckStatic(c); err != nil {
			t.Fatal(err)
		}
		if _, err := eval.Evaluate(c); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("CheckStatic + Evaluate: %d B per call", perCall)
	if perCall >= 8<<10 {
		t.Fatalf("CheckStatic + Evaluate allocate %d B per call, want < 8 KB", perCall)
	}
}
