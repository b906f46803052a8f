package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"solarml/internal/tensor"
)

// FuzzLoadModel asserts the float model payload decoder never panics on
// malformed input — it must fail with an error, whatever the bytes — and
// that any payload it accepts re-encodes stably. It fuzzes the payload, not
// the container, so the checksum does not absorb the mutations. Run the
// seed corpus as a plain test, or explore with
// `go test -run='^$' -fuzz=FuzzLoadModel ./internal/nn`.
func FuzzLoadModel(f *testing.F) {
	// Seed with a valid model and a few corruptions of it.
	arch := &Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{
		{Kind: KindConv, Out: 2, K: 3, Stride: 1, Pad: 1},
		{Kind: KindNorm},
		{Kind: KindReLU},
	}, Classes: 2}
	net, err := arch.Build()
	if err != nil {
		f.Fatal(err)
	}
	net.Init(rand.New(rand.NewSource(1)))
	valid := appendFloatModel(nil, arch, net)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("SMLM"))
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	for i := 2; i < 12 && i < len(corrupt); i++ {
		corrupt[i] = 0xFF
	}
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		arch, net, err := readFloatModel(data)
		if err != nil {
			return
		}
		// The input may use non-minimal varints, so the first encode
		// canonicalizes; from there encode→decode→encode is byte-identical.
		enc := appendFloatModel(nil, arch, net)
		arch2, net2, err := readFloatModel(enc)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		if again := appendFloatModel(nil, arch2, net2); !bytes.Equal(enc, again) {
			t.Fatal("encode→decode→encode is not byte-identical")
		}
	})
}

// FuzzLoadInt8Model does the same for the int8 payload cmd/serve loads,
// and also runs one forward pass through every model the decoder accepts:
// the architecture screen, the plan and finalize's tensor screen are what
// stand between a file and the executor's unchecked indexing.
func FuzzLoadInt8Model(f *testing.F) {
	arch := &Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{
		{Kind: KindConv, Out: 2, K: 3, Stride: 1, Pad: 1},
		{Kind: KindNorm},
		{Kind: KindReLU},
		{Kind: KindAvgPool, K: 2},
		{Kind: KindDWConv, K: 1, Stride: 1},
		{Kind: KindMaxPool, K: 2},
		{Kind: KindDense, Out: 4},
		{Kind: KindReLU},
	}, Classes: 2}
	net, err := arch.Build()
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	net.Init(rng)
	calib := tensor.New(4, 1, 4, 4)
	calib.RandFill(rng, 1)
	m, err := ConvertInt8(arch, net, calib, PTQConfig{WeightBits: 8, ActBits: 8})
	if err != nil {
		f.Fatal(err)
	}
	valid := appendInt8Model(nil, m)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	for i := 4; i < 16 && i < len(corrupt); i++ {
		corrupt[i] ^= 0x55
	}
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readInt8Model(data)
		if err != nil {
			return
		}
		// The input may use non-minimal varints, so the first encode
		// canonicalizes; from there encode→decode→encode is byte-identical.
		enc := appendInt8Model(nil, m)
		m2, err := readInt8Model(enc)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		if again := appendInt8Model(nil, m2); !bytes.Equal(enc, again) {
			t.Fatal("encode→decode→encode is not byte-identical")
		}
		m.NewExecutor(nil, 1).Forward(make([]float64, m.InVol()), 1)
	})
}
