package nn

import "fmt"

// maxGeometry bounds every size, padding, parameter count and MAC count a
// plan accepts, so its int64 arithmetic cannot overflow.
const maxGeometry = 1 << 40

// LayerPlan is the geometry of one layer of a planned architecture.
type LayerPlan struct {
	Spec LayerSpec
	// Body is the index of the Arch.Body spec the layer realizes. A
	// Flatten inserted before a Dense carries that Dense's index; the
	// closing Flatten and the classifier head carry len(Body).
	Body    int
	In, Out []int // per-sample shapes; Out may alias In
	Params  int64
	MACs    int64
}

// ArchPlan is the geometry of a whole architecture: one entry per layer
// Build would construct, including the inserted Flattens and the
// classifier head, plus the totals the NAS constraints and energy models
// consume. It is computed by arithmetic alone; no tensor is allocated.
type ArchPlan struct {
	Layers []LayerPlan
	Params int64
	// TotalMACs is the single proxy of the μNAS/HarvNet energy model.
	TotalMACs int64
}

// Plan works out the geometry of a: the shapes, parameters and MACs of
// every layer Build would construct. It is the only code that derives
// geometry from an Arch, so an architecture is valid exactly when Plan
// returns no error.
func Plan(a *Arch) (*ArchPlan, error) {
	if a.Classes < 2 {
		return nil, fmt.Errorf("nn: Arch needs ≥2 classes, have %d", a.Classes)
	}
	if _, ok := product(a.Input...); !ok || len(a.Input) == 0 {
		return nil, fmt.Errorf("nn: Arch input %v needs positive dimensions and at most 2^40 elements", a.Input)
	}
	p := &ArchPlan{Layers: make([]LayerPlan, 0, len(a.Body)+3)}
	shape := append([]int(nil), a.Input...)
	dense := false
	var err error
	for i, s := range a.Body {
		if dense && s.Kind != KindDense && s.Kind != KindReLU {
			return nil, fmt.Errorf("nn: layer %d (%s) after Dense must be Dense or ReLU", i, s)
		}
		if s.Kind == KindDense && len(shape) > 1 {
			shape, _ = p.add(LayerSpec{Kind: KindFlatten}, i, shape)
		}
		if shape, err = p.add(s, i, shape); err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		dense = dense || s.Kind == KindDense
	}
	if len(shape) > 1 {
		shape, _ = p.add(LayerSpec{Kind: KindFlatten}, len(a.Body), shape)
	}
	if _, err = p.add(LayerSpec{Kind: KindDense, Out: a.Classes}, len(a.Body), shape); err != nil {
		return nil, fmt.Errorf("nn: classifier head: %w", err)
	}
	return p, nil
}

// add appends spec s applied to shape in and returns its output shape.
func (p *ArchPlan) add(s LayerSpec, body int, in []int) ([]int, error) {
	out, params, macs, err := s.geometry(in)
	if err != nil {
		return nil, err
	}
	p.Params += params
	p.TotalMACs += macs
	if p.Params > maxGeometry || p.TotalMACs > maxGeometry {
		return nil, fmt.Errorf("parameter or MAC count exceeds 2^40")
	}
	p.Layers = append(p.Layers, LayerPlan{Spec: s, Body: body, In: in, Out: out, Params: params, MACs: macs})
	return out, nil
}

// MACsByKind returns the per-sample MACs of every kind present (zero for
// ReLU and Flatten), the feature vector of the paper's layer-wise inference
// energy model E_M = Σ aᵢ·MACsᵢ + b.
func (p *ArchPlan) MACsByKind() map[LayerKind]int64 {
	byKind := make(map[LayerKind]int64)
	for _, l := range p.Layers {
		byKind[l.Spec.Kind] += l.MACs
	}
	return byKind
}

// MemoryBytes estimates MCU RAM: weights at weightBits plus the two largest
// consecutive activations at activationBits (double-buffered execution).
func (p *ArchPlan) MemoryBytes(weightBits, activationBits int) int64 {
	prev := int64(shapeVolume(p.Layers[0].In))
	peakPair := prev
	for _, l := range p.Layers {
		cur := int64(shapeVolume(l.Out))
		peakPair = max(peakPair, prev+cur)
		prev = cur
	}
	return p.Params*int64(weightBits)/8 + peakPair*int64(activationBits)/8
}

// build constructs one uninitialized layer per plan entry.
func (p *ArchPlan) build() *Network {
	layers := make([]Layer, len(p.Layers))
	for i := range p.Layers {
		layers[i] = p.Layers[i].layer()
	}
	return NewNetwork(p.Layers[0].In, layers...)
}

// layer constructs the planned layer with its parameters uninitialized.
func (l *LayerPlan) layer() Layer {
	s := l.Spec
	switch s.Kind {
	case KindConv:
		return NewConv2D(l.In[0], s.Out, s.K, s.Stride, s.Pad)
	case KindDWConv:
		return NewDepthwiseConv2D(l.In[0], s.K, s.Stride, s.Pad)
	case KindDense:
		return NewDense(shapeVolume(l.In), s.Out)
	case KindMaxPool:
		return NewMaxPool2D(s.K)
	case KindAvgPool:
		return NewAvgPool2D(s.K)
	case KindNorm:
		return NewBatchNorm(l.In[0])
	case KindReLU:
		return NewReLU()
	case KindFlatten:
		return NewFlatten()
	}
	panic(fmt.Sprintf("nn: planned layer of unsupported kind %s", s.Kind))
}

// geometry returns the per-sample output shape, parameter count and MAC
// count of s applied to the per-sample input shape in. It is the one place
// each kind's formulas are written: Plan chains it over an Arch, and the
// built layers' OutShape and MACs delegate to it. Shape-preserving kinds
// return in itself.
func (s LayerSpec) geometry(in []int) (out []int, params, macs int64, err error) {
	ok := true
	switch s.Kind {
	case KindConv, KindDWConv:
		if len(in) != 3 || s.Stride < 1 || s.Pad < 0 || s.Pad > maxGeometry {
			return nil, 0, 0, fmt.Errorf("%s does not fit input %v", s, in)
		}
		outC, perOut := in[0], 1 // depthwise: one K×K filter per channel
		if s.Kind == KindConv {
			outC, perOut = s.Out, in[0]
		}
		out = []int{outC, convOutDim(in[1], s.K, s.Stride, s.Pad), convOutDim(in[2], s.K, s.Stride, s.Pad)}
		weights, okW := product(outC, perOut, s.K, s.K)
		macs, ok = product(outC, out[1], out[2], perOut, s.K, s.K)
		params, ok = weights+int64(outC), ok && okW
	case KindDense:
		macs, ok = product(shapeVolume(in), s.Out)
		out, params = []int{s.Out}, macs+int64(s.Out)
	case KindMaxPool, KindAvgPool:
		if len(in) != 3 || s.K < 1 || in[1] < s.K || in[2] < s.K {
			return nil, 0, 0, fmt.Errorf("%s does not fit input %v", s, in)
		}
		out = []int{in[0], in[1] / s.K, in[2] / s.K}
		macs = int64(shapeVolume(out) * s.K * s.K) // one op per window element
	case KindNorm:
		if len(in) != 3 {
			return nil, 0, 0, fmt.Errorf("Norm needs 3-d input, have %v", in)
		}
		out, params, macs = in, 2*int64(in[0]), 2*int64(shapeVolume(in))
	case KindReLU:
		out = in
	case KindFlatten:
		out = []int{shapeVolume(in)}
	default:
		return nil, 0, 0, fmt.Errorf("unsupported layer kind %s", s.Kind)
	}
	if !ok {
		return nil, 0, 0, fmt.Errorf("%s on input %v needs a size outside [1, 2^40]", s, in)
	}
	return out, params, macs, nil
}

// mustGeometry is geometry for a built layer, whose input shape is a
// caller contract: a shape the layer cannot take panics.
func (s LayerSpec) mustGeometry(in []int) (out []int, macs int64) {
	out, _, macs, err := s.geometry(in)
	if err != nil {
		panic("nn: " + err.Error())
	}
	return out, macs
}

// product multiplies sizes, failing on a non-positive factor or once the
// running product passes maxGeometry, so no intermediate overflows.
func product(fs ...int) (int64, bool) {
	p := int64(1)
	for _, f := range fs {
		if f < 1 || p > maxGeometry/int64(f) {
			return 0, false
		}
		p *= int64(f)
	}
	return p, true
}
