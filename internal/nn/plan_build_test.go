package nn_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"solarml/internal/nas"
	"solarml/internal/nn"
)

// checkPlanMatchesBuild builds arch and checks its plan against the network
// layer by layer: shapes against OutShape, parameters against the built
// tensors, MACs against Layer.MACs, and memory against the double-buffer
// rule recomputed from the built shapes.
func checkPlanMatchesBuild(t *testing.T, arch *nn.Arch) {
	t.Helper()
	plan, err := nn.Plan(arch)
	if err != nil {
		t.Fatalf("Plan(%s): %v", arch, err)
	}
	net, err := arch.Build()
	if err != nil {
		t.Fatalf("Build(%s): %v", arch, err)
	}
	if len(plan.Layers) != len(net.Layers) {
		t.Fatalf("%s: plan has %d layers, network %d", arch, len(plan.Layers), len(net.Layers))
	}
	volume := func(s []int) int64 {
		v := int64(1)
		for _, d := range s {
			v *= int64(d)
		}
		return v
	}
	shape := net.InShape
	byKind := make(map[nn.LayerKind]int64)
	prev := volume(shape)
	peakPair := prev
	for i, l := range net.Layers {
		e := plan.Layers[i]
		out := l.OutShape(shape)
		var params int64
		for _, p := range l.Params() {
			params += int64(p.Value.Len())
		}
		macs := l.MACs(shape)
		if e.Spec.Kind != l.Kind() || !slices.Equal(e.In, shape) || !slices.Equal(e.Out, out) || e.Params != params || e.MACs != macs {
			t.Fatalf("%s layer %d: plan %s %v→%v params %d MACs %d; built %s %v→%v params %d MACs %d",
				arch, i, e.Spec.Kind, e.In, e.Out, e.Params, e.MACs, l.Kind(), shape, out, params, macs)
		}
		byKind[l.Kind()] += macs
		cur := volume(out)
		peakPair = max(peakPair, prev+cur)
		prev, shape = cur, out
	}
	if plan.Params != net.ParamCount() {
		t.Fatalf("%s: plan params %d, built %d", arch, plan.Params, net.ParamCount())
	}
	if !maps.Equal(plan.MACsByKind(), byKind) {
		t.Fatalf("%s: plan MACs by kind %v, built %v", arch, plan.MACsByKind(), byKind)
	}
	var total int64
	for _, v := range byKind {
		total += v
	}
	if plan.TotalMACs != total {
		t.Fatalf("%s: plan total MACs %d, built %d", arch, plan.TotalMACs, total)
	}
	for _, bits := range [][2]int{{8, 8}, {4, 8}, {32, 16}} {
		want := net.ParamCount()*int64(bits[0])/8 + peakPair*int64(bits[1])/8
		if got := plan.MemoryBytes(bits[0], bits[1]); got != want {
			t.Fatalf("%s: plan memory at %v bits %d B, built %d B", arch, bits, got, want)
		}
	}
}

// TestPlanMatchesBuild pins Plan ≡ Build over hand-written architectures
// and over random gesture and KWS candidates with chains of architecture
// mutations, the population the searches actually screen.
func TestPlanMatchesBuild(t *testing.T) {
	fixed := []*nn.Arch{
		{Input: []int{1, 8, 8}, Body: []nn.LayerSpec{
			{Kind: nn.KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindNorm},
			{Kind: nn.KindReLU},
			{Kind: nn.KindMaxPool, K: 2},
			{Kind: nn.KindDWConv, K: 3, Stride: 1, Pad: 1},
			{Kind: nn.KindDense, Out: 16},
			{Kind: nn.KindReLU},
		}, Classes: 10},
		{Input: []int{3, 12, 12}, Body: []nn.LayerSpec{
			{Kind: nn.KindAvgPool, K: 2},
			{Kind: nn.KindConv, Out: 8, K: 5, Stride: 1, Pad: 2},
		}, Classes: 4},
		{Input: []int{16}, Body: []nn.LayerSpec{
			{Kind: nn.KindDense, Out: 32},
			{Kind: nn.KindReLU},
		}, Classes: 2},
		{Input: []int{2, 3}, Classes: 2},
	}
	for _, arch := range fixed {
		checkPlanMatchesBuild(t, arch)
	}
	for _, space := range []*nas.Space{nas.GestureSpace(), nas.KWSSpace()} {
		rng := rand.New(rand.NewSource(11))
		for chain := 0; chain < 12; chain++ {
			c := space.RandomCandidate(rng)
			for step := 0; step < 4; step++ {
				checkPlanMatchesBuild(t, c.Arch)
				c = space.MutateArch(rng, c)
			}
		}
	}
}

// fuzzArch decodes bytes into a small architecture: a rank byte, one byte
// per input dimension, a class byte, then five bytes per layer (kind, out,
// and signed k, stride, pad). Every field is reduced into a small range
// that still reaches zero, negative and unknown values; missing bytes read
// as zero.
func fuzzArch(data []byte) *nn.Arch {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	signed := func() int { return int(int8(next())) % 8 }
	a := &nn.Arch{}
	for rank := int(next() % 5); rank > 0; rank-- {
		a.Input = append(a.Input, int(next()%12))
	}
	a.Classes = int(next() % 12)
	for len(data) > 0 && len(a.Body) < 12 {
		a.Body = append(a.Body, nn.LayerSpec{
			Kind: nn.LayerKind(next() % 10), Out: int(next() % 17),
			K: signed(), Stride: signed(), Pad: signed(),
		})
	}
	return a
}

// FuzzPlan checks that Plan never panics and accepts exactly the
// architectures Build turns into a network: a rejected architecture fails
// Build with the same error, and an accepted one small enough to build
// matches its network layer by layer. Run the seed corpus as a plain test,
// or explore with `go test -run='^$' -fuzz=FuzzPlan ./internal/nn`.
func FuzzPlan(f *testing.F) {
	conv, dense, relu := byte(nn.KindConv), byte(nn.KindDense), byte(nn.KindReLU)
	f.Add([]byte{3, 1, 8, 8, 3, conv, 4, 3, 1, 1, relu, 0, 0, 0, 0, byte(nn.KindMaxPool), 0, 2, 0, 0, dense, 8, 0, 0, 0, relu, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 8, 8, 3, byte(nn.KindFlatten) + 1, 0, 0, 0, 0}) // past the last kind
	f.Add([]byte{3, 1, 8, 8, 3, byte(nn.KindFlatten), 0, 0, 0, 0, conv, 4, 3, 1, 0})
	f.Add([]byte{3, 1, 8, 8, 1, relu, 0, 0, 0, 0})
	f.Add([]byte{3, 1, 8, 8, 3, dense, 8, 0, 0, 0, byte(nn.KindNorm), 0, 0, 0, 0})
	f.Add([]byte{3, 0, 0, 5, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		arch := fuzzArch(data)
		plan, err := nn.Plan(arch)
		if err != nil {
			if _, berr := arch.Build(); fmt.Sprint(berr) != err.Error() {
				t.Fatalf("%s: Plan error %v, Build error %v", arch, err, berr)
			}
			return
		}
		if plan.Params <= 1<<16 {
			checkPlanMatchesBuild(t, arch)
		}
	})
}
