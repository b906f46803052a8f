package nn

import (
	"fmt"
	"math"
	"slices"

	"solarml/internal/bytecodec"
	"solarml/internal/compute"
	"solarml/internal/tensor"
)

// int8.go is the PTQ→integer lowering pass: ConvertInt8 folds a trained
// float network plus cmd/deploy's wbits/abits PTQ configuration into an
// Int8Model — a flat program of quantized ops whose weights are int8, whose
// accumulators are int32, and whose layer boundaries carry precomputed
// requantization parameters (31-bit fixed-point multiplier + shift, see
// compute.QuantizeMultiplier). The program's geometry is lowered from the
// architecture's Plan, like the float network's; only the tensors are the
// lowering's own. The executor over this program lives in int8exec.go; the
// serialized form (cmd/deploy -qout → cmd/serve) is the int8 payload of
// the SOLARMDL container, which stores the Arch and the tensors.
//
// Quantization scheme: symmetric, zero-point 0 throughout. Weights take one
// scale per output channel (row of the GEMM), activations one scale per
// layer boundary calibrated exactly like the float PTQ pass (maxAbs /
// (2^(abits−1)−1) over a representative batch, with the weights already
// snapped to their grid). Biases are int32 in the accumulator's scale
// s_in·s_w[oc]. BatchNorm folds to a per-channel integer affine
// clamp(rne(x·M_c) + qb_c) whose bias applies after the scale, so a dead
// channel (gamma 0) still lands exactly on its beta constant. The
// classifier head stays in float: logits[j] = acc·s_in·s_w[j] + b[j], which
// costs one multiply per class and spares the logits a destructive final
// rounding. ReLUs following a compute layer fuse into its epilogue as a
// zero lower clamp.

// int8OpKind enumerates the quantized executor's op set.
type int8OpKind int

const (
	opConv int8OpKind = iota
	opDWConv
	opDense
	opDenseLogits
	opMaxPool
	opAvgPool
	opReLU
	opNorm
)

// int8Op is one step of the quantized program. Geometry is per sample and
// comes from the architecture's plan (see lower); buffers carry the batch
// contiguously (sample-major, NCHW within).
type int8Op struct {
	kind  int8OpKind
	relu  bool // fused ReLU: requantize with a zero lower clamp
	layer int  // plan index of the layer the op lowers

	inC, outC, k, stride, pad int
	inH, inW, outH, outW      int
	in, out                   int // per-sample volumes

	w     []int8  // quantized weights (GEMM row-major, see compute kernels)
	bias  []int32 // accumulator-scale bias (conv/dwconv/dense)
	mult  []int32 // requant multipliers, one per channel (avgpool: one)
	shift []int32
	// biasPost is the post-scale affine bias of opNorm (output-scale units).
	biasPost []int32
	// deq/biasF are the float head of opDenseLogits: per-class
	// dequantization scale and float bias.
	deq, biasF []float64
}

// Int8Model is a lowered, immutable quantized network: safe for concurrent
// executors (each Int8Executor owns its scratch; the model is read-only).
type Int8Model struct {
	arch    *Arch
	inScale float64 // input quantization scale (boundary 0)
	wbits   int
	abits   int
	ops     []int8Op

	// Per-sample scratch high-water marks, computed by lower: the executor
	// sizes its inference arena once from these.
	maxAct  int // largest activation volume (incl. the input)
	maxAcc  int // largest conv accumulator volume
	maxCols int // largest conv im2col volume
}

// InShape returns the per-sample input shape.
func (m *Int8Model) InShape() []int { return append([]int(nil), m.arch.Input...) }

// InVol returns the per-sample input volume (floats per classify instance).
func (m *Int8Model) InVol() int { return shapeVolume(m.arch.Input) }

// Classes returns the number of output classes.
func (m *Int8Model) Classes() int { return m.arch.Classes }

// ArchString returns the source architecture description.
func (m *Int8Model) ArchString() string { return m.arch.String() }

// Bits returns the weight and activation bit widths the model was lowered at.
func (m *Int8Model) Bits() (wbits, abits int) { return m.wbits, m.abits }

// nz substitutes 1 for a dead (zero) scale so folded divisions stay finite;
// a zero scale means the corresponding values are identically zero, so any
// finite substitute is exact.
func nz(s float64) float64 {
	if s == 0 {
		return 1
	}
	return s
}

// roundClampI32 rounds to nearest even and saturates into int32.
func roundClampI32(v float64) int32 {
	r := math.RoundToEven(v)
	if !(r > math.MinInt32) { // also catches NaN
		return math.MinInt32
	}
	if r > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(r)
}

// quantizeRows snaps data (rows × rowLen, row-major) to a symmetric
// per-row int8 grid: returns the quantized values and one scale per row,
// and writes the dequantized values back into data so calibration runs
// against exactly the weights the integer kernels will use. A zero scale
// marks a dead (all-zero) row.
func quantizeRows(data []float64, rows, rowLen int, levels int32) ([]int8, []float64) {
	q := make([]int8, rows*rowLen)
	scales := make([]float64, rows)
	lv := float64(levels)
	for r := 0; r < rows; r++ {
		row := data[r*rowLen : (r+1)*rowLen]
		var m float64
		for _, v := range row {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		if m == 0 {
			continue
		}
		s := m / lv
		scales[r] = s
		for i, v := range row {
			qv := math.RoundToEven(v / s)
			if qv > lv {
				qv = lv
			}
			if qv < -lv {
				qv = -lv
			}
			q[r*rowLen+i] = int8(qv)
			row[i] = qv * s
		}
	}
	return q, scales
}

// foldRequant builds the per-channel requant parameters mapping an
// accumulator in scale sIn·ws[c] to the sOut output grid, plus the int32
// bias lifted into the accumulator scale.
func foldRequant(sIn, sOut float64, ws, biasF []float64) (bias, mult, shift []int32) {
	n := len(ws)
	bias = make([]int32, n)
	mult = make([]int32, n)
	shift = make([]int32, n)
	for c := 0; c < n; c++ {
		w := nz(ws[c]) // dead row: acc is always 0, substitution keeps the bias alive
		m, s := compute.QuantizeMultiplier(sIn * w / sOut)
		mult[c], shift[c] = m, int32(s)
		if biasF != nil {
			bias[c] = roundClampI32(biasF[c] / (sIn * w))
		}
	}
	return bias, mult, shift
}

// lower sets m's op program from p, the plan of m.arch: one op per planned
// layer, except that a Flatten (a memory no-op at inference) emits none and
// a ReLU directly after a Conv, DWConv, Norm or non-head Dense fuses into
// that op's requant epilogue as a zero lower clamp. The head becomes
// opDenseLogits. It also works out the executor's arena high-water marks.
// The ops carry geometry only; the caller fills in their tensors.
func (m *Int8Model) lower(p *ArchPlan) {
	head := len(p.Layers) - 1
	m.ops = make([]int8Op, 0, len(p.Layers))
	m.maxAct, m.maxAcc, m.maxCols = shapeVolume(p.Layers[0].In), 0, 0
	for li := 0; li <= head; li++ {
		l := &p.Layers[li]
		op := int8Op{layer: li, k: l.Spec.K, stride: l.Spec.Stride, pad: l.Spec.Pad,
			in: shapeVolume(l.In), out: shapeVolume(l.Out)}
		if len(l.In) == 3 {
			op.inC, op.inH, op.inW = l.In[0], l.In[1], l.In[2]
		}
		if len(l.Out) == 3 {
			op.outC, op.outH, op.outW = l.Out[0], l.Out[1], l.Out[2]
		}
		fusable := true
		switch l.Spec.Kind {
		case KindConv:
			op.kind = opConv
			m.maxAcc = max(m.maxAcc, op.out)
			m.maxCols = max(m.maxCols, op.inC*op.k*op.k*op.outH*op.outW)
		case KindDWConv:
			op.kind = opDWConv
		case KindNorm:
			op.kind = opNorm
		case KindDense:
			op.kind, op.inC, op.outC = opDense, op.in, op.out
			if li == head {
				op.kind, fusable = opDenseLogits, false
			}
		case KindMaxPool:
			op.kind, fusable = opMaxPool, false
		case KindAvgPool:
			op.kind, fusable = opAvgPool, false
		case KindReLU:
			op.kind, fusable = opReLU, false
		case KindFlatten:
			continue
		}
		if fusable && p.Layers[li+1].Spec.Kind == KindReLU {
			op.relu = true
			li++
		}
		m.maxAct = max(m.maxAct, op.in, op.out)
		m.ops = append(m.ops, op)
	}
}

// ConvertInt8 lowers a trained float network, which must have been built
// from arch, to an Int8Model at the PTQ config's bit widths (both ≤ 8: the
// storage is int8). The network's float parameters are left untouched
// (snapshot/restore around the internal weight snapping), so the caller can
// still run — or destructively PTQ — the float model afterwards. calib has
// shape (N, ...arch.Input) and calibrates the activation grids exactly like
// ApplyPTQ.
func ConvertInt8(arch *Arch, net *Network, calib *tensor.Tensor, cfg PTQConfig) (*Int8Model, error) {
	if cfg.WeightBits < 2 || cfg.WeightBits > 8 {
		return nil, fmt.Errorf("nn: int8 lowering needs weight bits in [2,8], have %d", cfg.WeightBits)
	}
	if cfg.ActBits < 2 || cfg.ActBits > 8 {
		return nil, fmt.Errorf("nn: int8 lowering needs activation bits in [2,8], have %d", cfg.ActBits)
	}
	if calib == nil || len(calib.Shape) == 0 || calib.Shape[0] < 1 {
		return nil, fmt.Errorf("nn: int8 lowering needs a calibration batch")
	}
	plan, err := Plan(arch)
	if err != nil {
		return nil, fmt.Errorf("nn: int8 lowering: %w", err)
	}
	if len(net.Layers) != len(plan.Layers) || !slices.Equal(net.InShape, arch.Input) {
		return nil, fmt.Errorf("nn: int8 lowering: network was not built from %s: %d layers on input %v, the plan has %d on %v",
			arch, len(net.Layers), net.InShape, len(plan.Layers), arch.Input)
	}
	for li, l := range net.Layers {
		if want := plan.Layers[li].Spec.Kind; l.Kind() != want {
			return nil, fmt.Errorf("nn: int8 lowering: network was not built from %s: layer %d is %s, the plan has %s", arch, li, l.Kind(), want)
		}
	}
	levelsW := int32(1)<<uint(cfg.WeightBits-1) - 1
	levelsA := float64(int32(1)<<uint(cfg.ActBits-1) - 1)

	// Snap weights to their per-row grids (dequantized in place so
	// calibration sees the deployed weights), restoring the float model on
	// every exit path.
	snap := net.SnapshotParams()
	defer net.RestoreParams(snap)
	qw := make([][]int8, len(net.Layers))
	wsc := make([][]float64, len(net.Layers))
	for li, l := range net.Layers {
		switch t := l.(type) {
		case *Conv2D:
			qw[li], wsc[li] = quantizeRows(t.W.Value.Data, t.OutC, t.InC*t.K*t.K, levelsW)
		case *DepthwiseConv2D:
			qw[li], wsc[li] = quantizeRows(t.W.Value.Data, t.C, t.K*t.K, levelsW)
		case *Dense:
			qw[li], wsc[li] = quantizeRows(t.W.Value.Data, t.Out, t.In, levelsW)
		}
	}

	// Calibrate boundary maxAbs (input is boundary 0) in inference mode,
	// checking each layer's output against its plan entry on the way.
	maxs := make([]float64, len(net.Layers)+1)
	total := calib.Shape[0]
	sample := len(calib.Data) / total
	const chunk = 32
	for start := 0; start < total; start += chunk {
		end := start + chunk
		if end > total {
			end = total
		}
		bshape := append([]int{end - start}, arch.Input...)
		x := tensor.FromSlice(calib.Data[start*sample:end*sample], bshape...)
		if m := x.MaxAbs(); m > maxs[0] {
			maxs[0] = m
		}
		for i, l := range net.Layers {
			x = l.Forward(x, false)
			if !slices.Equal(x.Shape[1:], plan.Layers[i].Out) {
				return nil, fmt.Errorf("nn: int8 lowering: network was not built from %s: layer %d outputs %v, the plan has %v", arch, i, x.Shape[1:], plan.Layers[i].Out)
			}
			if m := x.MaxAbs(); m > maxs[i+1] {
				maxs[i+1] = m
			}
		}
	}
	scales := make([]float64, len(maxs))
	for i, m := range maxs {
		scales[i] = m / levelsA
	}

	m := &Int8Model{arch: arch.Clone(), inScale: scales[0], wbits: cfg.WeightBits, abits: cfg.ActBits}
	m.lower(plan)

	// Fill in each op's tensors. sCur is the effective scale of the current
	// activation grid (nz-substituted at every requant boundary so it
	// matches the multipliers actually baked in); sOut is the grid after
	// the op, past a fused ReLU.
	sCur := nz(scales[0])
	for i := range m.ops {
		op := &m.ops[i]
		li := op.layer
		next := li + 1
		if op.relu {
			next++
		}
		sOut := nz(scales[next])
		switch t := net.Layers[li].(type) {
		case *Conv2D:
			op.w = qw[li]
			op.bias, op.mult, op.shift = foldRequant(sCur, sOut, wsc[li], t.B.Value.Data)
		case *DepthwiseConv2D:
			op.w = qw[li]
			op.bias, op.mult, op.shift = foldRequant(sCur, sOut, wsc[li], t.B.Value.Data)
		case *Dense:
			op.w = qw[li]
			if op.kind == opDenseLogits {
				// Classifier head: float logits, exact for dead rows
				// (deq 0 leaves the bias).
				op.deq = make([]float64, t.Out)
				for j, ws := range wsc[li] {
					op.deq[j] = sCur * ws
				}
				op.biasF = append([]float64(nil), t.B.Value.Data...)
				continue
			}
			op.bias, op.mult, op.shift = foldRequant(sCur, sOut, wsc[li], t.B.Value.Data)
		case *AvgPool2D:
			mu, sh := compute.QuantizeMultiplier(sCur / (float64(op.k*op.k) * sOut))
			op.mult, op.shift = []int32{mu}, []int32{int32(sh)}
		case *BatchNorm:
			// Integer affine with a post-scale bias: out = clamp(rne(x·M_c)
			// + qb_c), M_c signed (gamma may be negative).
			op.mult = make([]int32, t.C)
			op.shift = make([]int32, t.C)
			op.biasPost = make([]int32, t.C)
			for c := 0; c < t.C; c++ {
				a := t.Gamma.Value.Data[c] / math.Sqrt(t.RunVar[c]+t.Eps)
				b := t.Beta.Value.Data[c] - t.RunMean[c]*a
				mu, sh := compute.QuantizeMultiplierSigned(a * sCur / sOut)
				op.mult[c], op.shift[c] = mu, int32(sh)
				op.biasPost[c] = roundClampI32(b / sOut)
			}
		default:
			// MaxPool commutes with the monotone quantizer and a standalone
			// ReLU clamps at 0: both keep the input grid, no requant.
			continue
		}
		sCur = sOut
	}
	if err := m.finalize(); err != nil {
		return nil, err
	}
	return m, nil
}

// finalize screens the op tensors against the program lower derived from
// the architecture: every tensor has the length its op's geometry needs,
// every requant shift is in range, and the executor's arena stays within
// budget. It runs after conversion and after decode; a decoded file cannot
// state a geometry of its own, so this is the whole screen between a file
// and the executor's unchecked indexing.
func (m *Int8Model) finalize() error {
	if m.wbits < 2 || m.wbits > 8 || m.abits < 2 || m.abits > 8 {
		return fmt.Errorf("nn: int8 model: bit widths (%d,%d) outside [2,8]", m.wbits, m.abits)
	}
	if !(m.inScale >= 0) || math.IsInf(m.inScale, 0) {
		return fmt.Errorf("nn: int8 model: invalid input scale %v", m.inScale)
	}
	// The im2col volume never exceeds the conv's MACs, so 2^25 clears
	// every model within the 30 M MAC budget.
	if m.maxAct > 1<<24 || m.maxCols > 1<<25 {
		return fmt.Errorf("nn: int8 model: implausible activation volume %d or im2col volume %d", m.maxAct, m.maxCols)
	}
	for i := range m.ops {
		op := &m.ops[i]
		var w, bias, requant, post, head int // required tensor lengths
		switch op.kind {
		case opConv:
			w, bias, requant = op.outC*op.inC*op.k*op.k, op.outC, op.outC
		case opDWConv:
			w, bias, requant = op.inC*op.k*op.k, op.inC, op.inC
		case opDense:
			w, bias, requant = op.outC*op.inC, op.outC, op.outC
		case opDenseLogits:
			w, head = op.outC*op.inC, op.outC
		case opAvgPool:
			requant = 1
		case opNorm:
			requant, post = op.inC, op.inC
		}
		if len(op.w) != w || len(op.bias) != bias || len(op.mult) != requant || len(op.shift) != requant ||
			len(op.biasPost) != post || len(op.deq) != head || len(op.biasF) != head {
			return fmt.Errorf("nn: int8 model: op %d: tensor lengths do not match layer %d of the architecture", i, op.layer)
		}
		for _, s := range op.shift {
			if s < -31 || s > 62 {
				return fmt.Errorf("nn: int8 model: op %d: requant shift %d outside [-31,62]", i, s)
			}
		}
	}
	return nil
}

// WeightBytes returns the serialized int8 weight storage.
func (m *Int8Model) WeightBytes() int64 {
	var n int64
	for i := range m.ops {
		n += int64(len(m.ops[i].w))
	}
	return n
}

// Accuracy evaluates quantized top-1 accuracy through a temporary executor.
func (m *Int8Model) Accuracy(ctx *compute.Context, inputs *tensor.Tensor, labels []int) float64 {
	total := inputs.Shape[0]
	sample := len(inputs.Data) / total
	const chunk = 32
	ex := m.NewExecutor(ctx, chunk)
	correct := 0
	for start := 0; start < total; start += chunk {
		end := start + chunk
		if end > total {
			end = total
		}
		bs := end - start
		logits := ex.Forward(inputs.Data[start*sample:end*sample], bs)
		k := m.Classes()
		for i := 0; i < bs; i++ {
			best, bi := math.Inf(-1), 0
			for j := 0; j < k; j++ {
				if v := logits[i*k+j]; v > best {
					best, bi = v, j
				}
			}
			if bi == labels[start+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(total)
}

// ---- codec ----------------------------------------------------------------

// int8ModelVersion is the int8 payload layout version inside the SOLARMDL
// container (the container carries its own envelope version). Version 1
// stored each op's kind, fused-ReLU flag and geometry next to its tensors;
// version 2 stores the architecture instead and re-derives the program.
const int8ModelVersion = 2

func appendI32s(b []byte, v []int32) []byte {
	b = bytecodec.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = bytecodec.AppendVarint(b, int64(x))
	}
	return b
}

func appendF64s(b []byte, v []float64) []byte {
	b = bytecodec.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = bytecodec.AppendF64(b, x)
	}
	return b
}

func appendI8s(b []byte, v []int8) []byte {
	raw := make([]byte, len(v))
	for i, x := range v {
		raw[i] = byte(x)
	}
	return bytecodec.AppendBytes(b, raw)
}

const maxCodecList = 1 << 24

// The list readers size their allocation by the bytes actually left (a
// varint is at least one byte, a float64 eight), so a corrupt count fails
// on the first missing element instead of allocating for it.

func readI32s(r *bytecodec.Reader) []int32 {
	n := r.Uvarint()
	if n > maxCodecList || r.Err() != nil {
		return nil
	}
	out := make([]int32, 0, min(n, uint64(r.Len())))
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out = append(out, int32(r.Varint()))
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func readF64s(r *bytecodec.Reader) []float64 {
	n := r.Uvarint()
	if n > maxCodecList || r.Err() != nil {
		return nil
	}
	out := make([]float64, 0, min(n, uint64(r.Len()/8)))
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out = append(out, r.F64())
	}
	if r.Err() != nil {
		return nil
	}
	return out
}

func readI8s(r *bytecodec.Reader) []int8 {
	raw := r.Bytes()
	if r.Err() != nil {
		return nil
	}
	out := make([]int8, len(raw))
	for i, x := range raw {
		out[i] = int8(x)
	}
	return out
}

// appendInt8Model encodes the int8 payload (the container adds
// magic/version/CRC around it): the version, the architecture (AppendArch),
// the input scale, the bit widths, then each op's tensors in program order.
// The ops themselves are not stored: the reader lowers the architecture's
// plan again.
func appendInt8Model(b []byte, m *Int8Model) []byte {
	b = bytecodec.AppendUvarint(b, int8ModelVersion)
	b = AppendArch(b, m.arch)
	b = bytecodec.AppendF64(b, m.inScale)
	b = bytecodec.AppendUvarint(b, uint64(m.wbits))
	b = bytecodec.AppendUvarint(b, uint64(m.abits))
	for i := range m.ops {
		op := &m.ops[i]
		b = appendI8s(b, op.w)
		b = appendI32s(b, op.bias)
		b = appendI32s(b, op.mult)
		b = appendI32s(b, op.shift)
		b = appendI32s(b, op.biasPost)
		b = appendF64s(b, op.deq)
		b = appendF64s(b, op.biasF)
	}
	return b
}

// readInt8Model decodes and validates an int8 payload. The architecture is
// screened and planned before any tensor is read, and the op program comes
// from the plan alone.
func readInt8Model(payload []byte) (*Int8Model, error) {
	r := bytecodec.NewReader(payload)
	ver := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nn: int8 model header: %w", err)
	}
	if ver != int8ModelVersion {
		return nil, fmt.Errorf("nn: int8 model payload version %d; this build reads version %d (re-export the model with a matching cmd/deploy -qout)", ver, int8ModelVersion)
	}
	arch, err := ReadArch(r)
	if err != nil {
		return nil, fmt.Errorf("nn: int8 model architecture: %w", err)
	}
	if err := screenArch(arch); err != nil {
		return nil, err
	}
	plan, err := Plan(arch)
	if err != nil {
		return nil, fmt.Errorf("nn: screening architecture: %w", err)
	}
	m := &Int8Model{arch: arch, inScale: r.F64(), wbits: int(r.Uvarint()), abits: int(r.Uvarint())}
	m.lower(plan)
	for i := range m.ops {
		op := &m.ops[i]
		op.w = readI8s(r)
		op.bias = readI32s(r)
		op.mult = readI32s(r)
		op.shift = readI32s(r)
		op.biasPost = readI32s(r)
		op.deq = readF64s(r)
		op.biasF = readF64s(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("nn: int8 model op %d: %w", i, err)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("nn: int8 model: %d trailing bytes", r.Len())
	}
	if err := m.finalize(); err != nil {
		return nil, err
	}
	return m, nil
}
