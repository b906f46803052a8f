package nn

import (
	"fmt"
	"strings"

	"solarml/internal/bytecodec"
)

// LayerSpec describes one layer of an architecture as data, so the NAS can
// mutate architectures without touching parameter tensors.
type LayerSpec struct {
	Kind   LayerKind
	Out    int // output channels (Conv) or units (Dense)
	K      int // kernel or pooling window
	Stride int
	Pad    int
}

// String renders a compact human-readable spec.
func (s LayerSpec) String() string {
	switch s.Kind {
	case KindConv:
		return fmt.Sprintf("Conv(%d,k%d,s%d,p%d)", s.Out, s.K, s.Stride, s.Pad)
	case KindDWConv:
		return fmt.Sprintf("DWConv(k%d,s%d,p%d)", s.K, s.Stride, s.Pad)
	case KindDense:
		return fmt.Sprintf("Dense(%d)", s.Out)
	case KindMaxPool:
		return fmt.Sprintf("MaxPool(%d)", s.K)
	case KindAvgPool:
		return fmt.Sprintf("AvgPool(%d)", s.K)
	}
	return s.Kind.String()
}

// Arch is a sequential architecture description. Build appends a Flatten and
// a Dense classifier head over Classes outputs, so Body only describes the
// feature extractor.
type Arch struct {
	Input   []int // per-sample input shape: (C,H,W) for conv stacks, (F) for MLPs
	Body    []LayerSpec
	Classes int
}

// Clone returns a deep copy.
func (a *Arch) Clone() *Arch {
	b := &Arch{Input: append([]int(nil), a.Input...), Classes: a.Classes}
	b.Body = append([]LayerSpec(nil), a.Body...)
	return b
}

// String renders the architecture.
func (a *Arch) String() string {
	parts := make([]string, 0, len(a.Body)+2)
	parts = append(parts, fmt.Sprintf("In%v", a.Input))
	for _, s := range a.Body {
		parts = append(parts, s.String())
	}
	parts = append(parts, fmt.Sprintf("Head(%d)", a.Classes))
	return strings.Join(parts, "→")
}

// AppendArch appends the binary encoding of a shared by the search genome
// and the float model file: Classes, the input rank and dims, the body
// length, then one (Kind, Out, K, Stride, Pad) tuple per body spec, all as
// zig-zag varints. The bytes are a pure function of a.
func AppendArch(b []byte, a *Arch) []byte {
	b = bytecodec.AppendInt(b, a.Classes)
	b = bytecodec.AppendUvarint(b, uint64(len(a.Input)))
	for _, d := range a.Input {
		b = bytecodec.AppendInt(b, d)
	}
	b = bytecodec.AppendUvarint(b, uint64(len(a.Body)))
	for _, s := range a.Body {
		b = bytecodec.AppendInt(b, int(s.Kind))
		b = bytecodec.AppendInt(b, s.Out)
		b = bytecodec.AppendInt(b, s.K)
		b = bytecodec.AppendInt(b, s.Stride)
		b = bytecodec.AppendInt(b, s.Pad)
	}
	return b
}

// ReadArch decodes one AppendArch encoding. It enforces only the framing
// caps (rank ≤ 16, body ≤ 4096) that bound its own allocations; geometry
// is Plan's job.
func ReadArch(r *bytecodec.Reader) (*Arch, error) {
	a := &Arch{Classes: r.Int()}
	if n := r.Uvarint(); r.Err() == nil {
		if n > 16 {
			return nil, fmt.Errorf("nn: implausible input rank %d", n)
		}
		a.Input = make([]int, n)
		for i := range a.Input {
			a.Input[i] = r.Int()
		}
	}
	if n := r.Uvarint(); r.Err() == nil {
		if n > 4096 {
			return nil, fmt.Errorf("nn: implausible body length %d", n)
		}
		a.Body = make([]LayerSpec, n)
		for i := range a.Body {
			a.Body[i] = LayerSpec{
				Kind: LayerKind(r.Int()), Out: r.Int(),
				K: r.Int(), Stride: r.Int(), Pad: r.Int(),
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// Build materializes the architecture into a Network with an appended
// Flatten + Dense classifier head, one layer per Plan entry. Parameters are
// left uninitialized.
func (a *Arch) Build() (*Network, error) {
	p, err := Plan(a)
	if err != nil {
		return nil, err
	}
	return p.build(), nil
}

// Validate reports whether the architecture plans cleanly.
func (a *Arch) Validate() error {
	_, err := Plan(a)
	return err
}

// EstimateParams returns the trainable parameter count of the architecture
// (including the classifier head) from its plan — no tensors are
// allocated, so it is safe to call on untrusted descriptions before Build.
func (a *Arch) EstimateParams() (int64, error) {
	p, err := Plan(a)
	if err != nil {
		return 0, err
	}
	return p.Params, nil
}
