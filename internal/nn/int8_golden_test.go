package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"solarml/internal/tensor"
)

// TestInt8LoweringGolden pins the int8 arithmetic of two seeded models,
// the gesture CNN and the all-ops network: a SHA-256 over every lowered op
// tensor in program order (w, bias, mult, shift, biasPost, deq, biasF) and
// one over the batch-4 Forward logits. A change to where the program's
// geometry comes from must leave both byte-identical.
func TestInt8LoweringGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Training rounds differently where the compiler fuses
		// multiply-adds, so the trained weights are amd64 goldens.
		t.Skipf("goldens are recorded on amd64, not %s", runtime.GOARCH)
	}
	cases := []struct {
		name          string
		train         func(testing.TB) (*Arch, *Network, *tensor.Tensor, []int)
		tensors, logs string
	}{
		{"gesture", trainedGestureCNN,
			"194f834b1bb5a5fefa2097ff8ccfdab02db5de51ab6f05e9171de5244cd6ce02",
			"a0944dc9ce1ce3a092d7d8c2c9c0476d414492fd916ea2dbeedbede5864924ea"},
		{"all-ops", trainedAllOpsNet,
			"99b0de1c7ebc3852f9ba4e65ab42379629803652762f34c9028a0407282910e2",
			"b9c571857264410a2dbcf99535365487cbf5c0c870b321d98089b191bbad91f9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			arch, net, x, _ := c.train(t)
			m, err := ConvertInt8(arch, net, x, PTQConfig{WeightBits: 8, ActBits: 8})
			if err != nil {
				t.Fatal(err)
			}
			in := x.Data[:4*m.InVol()]
			th := hex.EncodeToString(int8TensorHash(m))
			lh := sha256.New()
			for _, v := range m.NewExecutor(nil, 4).Forward(in, 4) {
				lh.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
			if th != c.tensors {
				t.Errorf("op tensor hash %s, want %s", th, c.tensors)
			}
			if got := hex.EncodeToString(lh.Sum(nil)); got != c.logs {
				t.Errorf("logits hash %s, want %s", got, c.logs)
			}
		})
	}
}

// int8TensorHash hashes every op tensor of m in program order, each list
// prefixed by its length.
func int8TensorHash(m *Int8Model) []byte {
	h := sha256.New()
	var b []byte
	i32s := func(v []int32) {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
		for _, x := range v {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
	}
	f64s := func(v []float64) {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(v)))
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	for i := range m.ops {
		op := &m.ops[i]
		b = binary.LittleEndian.AppendUint64(b[:0], uint64(len(op.w)))
		for _, x := range op.w {
			b = append(b, byte(x))
		}
		i32s(op.bias)
		i32s(op.mult)
		i32s(op.shift)
		i32s(op.biasPost)
		f64s(op.deq)
		f64s(op.biasF)
		h.Write(b)
	}
	return h.Sum(nil)
}
