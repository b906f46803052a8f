package nn

import (
	"fmt"
	"testing"
)

// TestPlanRejectsBadGeometry pins that Plan, Build, Validate and
// EstimateParams agree on every malformed architecture: the same error from
// all four, and no panic. Each case used to slip through at least one of
// the separate walkers, or panic inside Build.
func TestPlanRejectsBadGeometry(t *testing.T) {
	in := []int{1, 8, 8}
	cases := []struct {
		name string
		arch *Arch
	}{
		// Kind 8 was Dropout; genomes and model files carrying it stay rejected.
		{"dropout", &Arch{Input: in, Body: []LayerSpec{{Kind: KindFlatten + 1}}, Classes: 3}},
		{"conv after flatten", &Arch{Input: in, Body: []LayerSpec{{Kind: KindFlatten}, {Kind: KindConv, Out: 4, K: 3, Stride: 1}}, Classes: 3}},
		{"one class", &Arch{Input: in, Body: []LayerSpec{{Kind: KindReLU}}, Classes: 1}},
		{"norm after dense", &Arch{Input: in, Body: []LayerSpec{{Kind: KindDense, Out: 8}, {Kind: KindNorm}}, Classes: 3}},
		{"maxpool k0", &Arch{Input: in, Body: []LayerSpec{{Kind: KindMaxPool}}, Classes: 3}},
		{"avgpool k0", &Arch{Input: in, Body: []LayerSpec{{Kind: KindAvgPool}}, Classes: 3}},
		{"conv k0", &Arch{Input: in, Body: []LayerSpec{{Kind: KindConv, Out: 4, Stride: 1}}, Classes: 3}},
		{"conv stride0", &Arch{Input: in, Body: []LayerSpec{{Kind: KindConv, Out: 4, K: 3, Pad: 1}}, Classes: 3}},
		{"dwconv k0", &Arch{Input: in, Body: []LayerSpec{{Kind: KindDWConv, Stride: 1}}, Classes: 3}},
		{"dwconv stride0", &Arch{Input: in, Body: []LayerSpec{{Kind: KindDWConv, K: 3, Pad: 1}}, Classes: 3}},
		{"zero input dims", &Arch{Input: []int{0, 0, 5}, Classes: 3}},
		{"no input", &Arch{Classes: 3}},
		{"negative pad", &Arch{Input: in, Body: []LayerSpec{{Kind: KindConv, Out: 4, K: 1, Stride: 1, Pad: -1}}, Classes: 3}},
		{"conv width0", &Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{{Kind: KindConv, K: 3, Stride: 1, Pad: 1}}, Classes: 2}},
		{"dense width0", &Arch{Input: in, Body: []LayerSpec{{Kind: KindDense}}, Classes: 3}},
		{"pool larger than input", &Arch{Input: []int{1, 2, 2}, Body: []LayerSpec{{Kind: KindMaxPool, K: 4}}, Classes: 2}},
		{"conv on flat input", &Arch{Input: []int{16}, Body: []LayerSpec{{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1}}, Classes: 2}},
		{"param overflow", &Arch{Input: []int{1 << 20}, Body: []LayerSpec{{Kind: KindDense, Out: 1 << 30}}, Classes: 2}},
		{"mac overflow", &Arch{Input: []int{1, 1 << 12, 1 << 12}, Body: []LayerSpec{{Kind: KindConv, Out: 1 << 12, K: 5, Stride: 1, Pad: 2}}, Classes: 2}},
		{"head overflow", &Arch{Input: []int{1 << 30}, Classes: 1 << 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, planErr := Plan(tc.arch)
			if planErr == nil {
				t.Fatalf("Plan accepted %s", tc.arch)
			}
			_, buildErr := tc.arch.Build()
			_, estErr := tc.arch.EstimateParams()
			for name, err := range map[string]error{"Build": buildErr, "Validate": tc.arch.Validate(), "EstimateParams": estErr} {
				if fmt.Sprint(err) != planErr.Error() {
					t.Errorf("%s error %v, Plan error %v", name, err, planErr)
				}
			}
		})
	}
}

func TestPlanMACsByKind(t *testing.T) {
	arch := &Arch{
		Input: []int{1, 8, 8},
		Body: []LayerSpec{
			{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: KindNorm},
			{Kind: KindReLU},
			{Kind: KindMaxPool, K: 2},
		},
		Classes: 10,
	}
	plan, err := Plan(arch)
	if err != nil {
		t.Fatal(err)
	}
	byKind := plan.MACsByKind()
	if byKind[KindConv] != 4*8*8*1*9 {
		t.Fatalf("Conv MACs = %d", byKind[KindConv])
	}
	if byKind[KindNorm] != 2*4*8*8 {
		t.Fatalf("Norm MACs = %d", byKind[KindNorm])
	}
	if byKind[KindMaxPool] != 4*4*4*4 {
		t.Fatalf("MaxPool MACs = %d", byKind[KindMaxPool])
	}
	// Classifier head: Dense(4·4·4 → 10).
	if byKind[KindDense] != 64*10 {
		t.Fatalf("Dense MACs = %d", byKind[KindDense])
	}
	var sum int64
	for _, v := range byKind {
		sum += v
	}
	if plan.TotalMACs != sum {
		t.Fatal("TotalMACs must equal the sum over kinds")
	}
	if want := int64(4*9+4) + 2*4 + (64*10 + 10); plan.Params != want {
		t.Fatalf("Params = %d, want %d", plan.Params, want)
	}
}

func TestMemoryBytesMonotonicInBits(t *testing.T) {
	arch := &Arch{
		Input:   []int{1, 8, 8},
		Body:    []LayerSpec{{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1}},
		Classes: 4,
	}
	plan, err := Plan(arch)
	if err != nil {
		t.Fatal(err)
	}
	m8 := plan.MemoryBytes(8, 8)
	m32 := plan.MemoryBytes(32, 8)
	if m32 <= m8 {
		t.Fatalf("wider weights must cost more RAM: %d vs %d", m32, m8)
	}
}
