package nn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"solarml/internal/tensor"
)

func trainedConvModel(t *testing.T) (*Arch, *Network, *tensor.Tensor, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(60))
	const n, side = 80, 6
	x := tensor.New(n, 1, side, side)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		pos := rng.Intn(side)
		for j := 0; j < side; j++ {
			if cls == 0 {
				x.Set(1, i, 0, j, pos)
			} else {
				x.Set(1, i, 0, pos, j)
			}
		}
		y[i] = cls
	}
	arch := &Arch{Input: []int{1, side, side}, Body: []LayerSpec{
		{Kind: KindConv, Out: 4, K: 3, Stride: 1, Pad: 1},
		{Kind: KindNorm},
		{Kind: KindReLU},
		{Kind: KindMaxPool, K: 2},
		{Kind: KindDense, Out: 8},
		{Kind: KindReLU},
	}, Classes: 2}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	net.Init(rng)
	net.Fit(x, y, TrainConfig{Epochs: 10, BatchSize: 16, LR: 0.05, Momentum: 0.9, Seed: 3})
	return arch, net, x, y
}

// sealFloat wraps a float payload in the checksummed container, so
// payload-level corruption reaches the decoder instead of the CRC check.
func sealFloat(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeContainer(&buf, payloadFloat, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	arch, net, x, y := trainedConvModel(t)
	want := net.Accuracy(x, y)
	var buf bytes.Buffer
	if err := SaveModelContainer(&buf, arch, net); err != nil {
		t.Fatal(err)
	}
	arch2, net2, err := LoadModelContainer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if arch2.String() != arch.String() {
		t.Fatalf("arch mismatch: %s vs %s", arch2, arch)
	}
	if got := net2.Accuracy(x, y); got != want {
		t.Fatalf("loaded model accuracy %.3f, want %.3f (must be bit-exact)", got, want)
	}
	// Logits must match exactly.
	probe := tensor.FromSlice(x.Data[:36], 1, 1, 6, 6)
	a := net.Forward(probe, false)
	b := net2.Forward(probe, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded model must reproduce logits bit-exactly")
		}
	}
	// The int8 program lowered from the reloaded model is the same program.
	var q1, q2 bytes.Buffer
	for _, c := range []struct {
		arch *Arch
		net  *Network
		out  *bytes.Buffer
	}{{arch, net, &q1}, {arch2, net2, &q2}} {
		m, err := ConvertInt8(c.arch, c.net, x, PTQConfig{WeightBits: 8, ActBits: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveInt8Model(c.out, m); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(q1.Bytes(), q2.Bytes()) {
		t.Fatal("reloaded model lowers to a different int8 program")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, _, err := LoadModelContainer(bytes.NewReader([]byte("XXXX1234"))); err == nil {
		t.Fatal("bad magic must fail")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	arch, net, _, _ := trainedConvModel(t)
	var buf bytes.Buffer
	if err := SaveModelContainer(&buf, arch, net); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 8, 20, len(full) / 2, len(full) - 4} {
		if _, _, err := LoadModelContainer(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	// A truncated payload under a valid checksum must fail in the decoder.
	payload := appendFloatModel(nil, arch, net)
	for _, cut := range []int{1, 3, 8, 20, len(payload) / 2, len(payload) - 4} {
		if _, _, err := LoadModelContainer(bytes.NewReader(sealFloat(t, payload[:cut]))); err == nil {
			t.Fatalf("payload truncation at %d must fail", cut)
		}
	}
}

func TestLoadRejectsBadVersion(t *testing.T) {
	arch, net, _, _ := trainedConvModel(t)
	payload := appendFloatModel(nil, arch, net)
	payload[0] = 99 // corrupt version
	_, _, err := LoadModelContainer(bytes.NewReader(sealFloat(t, payload)))
	if err == nil || !strings.Contains(err.Error(), "re-export") {
		t.Fatalf("wrong version must fail with a re-export error, got %v", err)
	}
}

// TestLoadRejectsSMLMPayload feeds a container whose payload is the raw
// SMLM stream older builds wrote: it must fail with the re-export error,
// not be misparsed as the current layout.
func TestLoadRejectsSMLMPayload(t *testing.T) {
	le := binary.LittleEndian
	b := []byte("SMLM")
	for _, v := range []uint32{1, 1, 4, 2, 0, 2, 8} { // version, rank, dim, classes, body, params, W len
		b = le.AppendUint32(b, v)
	}
	for i := 0; i < 8; i++ {
		b = le.AppendUint64(b, 0)
	}
	b = le.AppendUint32(b, 2) // bias len
	b = le.AppendUint64(b, 0)
	b = le.AppendUint64(b, 0)
	b = le.AppendUint32(b, 0) // norms
	_, _, err := LoadModelContainer(bytes.NewReader(sealFloat(t, b)))
	if err == nil || !strings.Contains(err.Error(), "re-export") {
		t.Fatalf("SMLM-era payload must fail with a re-export error, got %v", err)
	}
}

// TestLoadRejectsImplausibleArch pins the screens that run before the
// network is allocated.
func TestLoadRejectsImplausibleArch(t *testing.T) {
	for name, arch := range map[string]*Arch{
		"rank":    {Input: []int{1, 1, 1, 1, 1, 1, 1, 1, 2}, Classes: 2},
		"dim":     {Input: []int{1 << 17}, Classes: 2},
		"volume":  {Input: []int{1 << 13, 1 << 12}, Classes: 2},
		"classes": {Input: []int{4}, Classes: 1 << 17},
		"field":   {Input: []int{4}, Body: []LayerSpec{{Kind: KindDense, Out: 1 << 17}}, Classes: 2},
		"params":  {Input: []int{1 << 12}, Body: []LayerSpec{{Kind: KindDense, Out: 1 << 13}}, Classes: 2},
		"plan":    {Input: []int{4}, Body: []LayerSpec{{Kind: KindConv, Out: 2, K: 3, Stride: 1}}, Classes: 2},
	} {
		payload := AppendArch([]byte{floatModelVersion}, arch)
		if _, _, err := LoadModelContainer(bytes.NewReader(sealFloat(t, payload))); err == nil {
			t.Errorf("%s: implausible architecture accepted", name)
		}
	}
}

func TestBatchNormStatsSerialized(t *testing.T) {
	// BatchNorm running statistics must ship with the model — without
	// them, inference-mode logits would not reproduce.
	arch := &Arch{Input: []int{1, 4, 4}, Body: []LayerSpec{
		{Kind: KindConv, Out: 2, K: 3, Stride: 1, Pad: 1},
		{Kind: KindNorm},
	}, Classes: 2}
	net, err := arch.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	net.Init(rng)
	// Drive the running statistics away from their Init values.
	x := tensor.New(8, 1, 4, 4)
	x.RandFill(rng, 1)
	for i := range x.Data {
		x.Data[i] += 3
	}
	for i := 0; i < 20; i++ {
		net.Forward(x, true)
	}
	var saved *BatchNorm
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			saved = bn
		}
	}
	var buf bytes.Buffer
	if err := SaveModelContainer(&buf, arch, net); err != nil {
		t.Fatal(err)
	}
	_, net2, err := LoadModelContainer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range net2.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			for i := range bn.RunMean {
				if bn.RunMean[i] != saved.RunMean[i] || bn.RunVar[i] != saved.RunVar[i] {
					t.Fatal("loaded BatchNorm statistics must match the saved model")
				}
			}
		}
	}
}
