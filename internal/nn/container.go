package nn

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"solarml/internal/bytecodec"
)

// Model container. The files cmd/deploy writes and cmd/serve loads share
// the envelope the evolution checkpoints use: a magic + version header, a
// typed payload, and a CRC32 (IEEE) trailer over everything before it. A
// truncated copy, a flipped bit, or a file from a build with a different
// layout fails loudly instead of deserializing garbage into a served model.
//
//	"SOLARMDL" | uvarint version | uvarint kind | bytes payload | crc32 (LE)
//
// Payload kinds: the trained float model (payloadFloat) and the quantized
// int8 model (payloadInt8). Both payloads are bytecodec layouts led by
// their own version uvarint.
const (
	containerMagic   = "SOLARMDL"
	containerVersion = 1

	payloadFloat = 1
	payloadInt8  = 2
)

// writeContainer wraps payload in the versioned, checksummed envelope.
func writeContainer(w io.Writer, kind int, payload []byte) error {
	b := make([]byte, 0, len(containerMagic)+len(payload)+16)
	b = append(b, containerMagic...)
	b = bytecodec.AppendUvarint(b, containerVersion)
	b = bytecodec.AppendUvarint(b, uint64(kind))
	b = bytecodec.AppendBytes(b, payload)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	_, err := w.Write(b)
	return err
}

// readContainer verifies the envelope and returns the payload kind and
// bytes. Version skew is an explicit error (re-export, don't guess), as is
// any checksum or framing failure.
func readContainer(r io.Reader) (kind int, payload []byte, err error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, fmt.Errorf("nn: reading model container: %w", err)
	}
	if len(b) < len(containerMagic)+4 || string(b[:len(containerMagic)]) != containerMagic {
		return 0, nil, fmt.Errorf("nn: not a SolarML model container (bad magic)")
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return 0, nil, fmt.Errorf("nn: model container checksum mismatch (corrupt or truncated file)")
	}
	rd := bytecodec.NewReader(body[len(containerMagic):])
	ver := rd.Uvarint()
	if err := rd.Err(); err != nil {
		return 0, nil, fmt.Errorf("nn: model container header: %w", err)
	}
	if ver != containerVersion {
		return 0, nil, fmt.Errorf("nn: model container version %d; this build reads version %d (re-export the model with a matching cmd/deploy)", ver, containerVersion)
	}
	k := rd.Uvarint()
	payload = rd.Bytes()
	if err := rd.Err(); err != nil {
		return 0, nil, fmt.Errorf("nn: model container payload: %w", err)
	}
	if rd.Len() != 0 {
		return 0, nil, fmt.Errorf("nn: model container has %d trailing bytes", rd.Len())
	}
	return int(k), payload, nil
}

// floatModelVersion is the float payload layout version. Version 1 was
// the raw SMLM stream, whose leading 'S' reads as version 83, so a file from
// that era fails the version check instead of being misparsed.
const floatModelVersion = 2

// SaveModelContainer writes the float model — net must have been built from
// arch — in the checksummed container.
func SaveModelContainer(w io.Writer, arch *Arch, net *Network) error {
	return writeContainer(w, payloadFloat, appendFloatModel(nil, arch, net))
}

// appendFloatModel encodes the float payload: the version, the
// architecture (AppendArch), every parameter tensor, then the BatchNorm
// running statistics. Those are inference state rather than trainable
// parameters, but logits only reproduce when they ship with the model.
func appendFloatModel(b []byte, arch *Arch, net *Network) []byte {
	b = bytecodec.AppendUvarint(b, floatModelVersion)
	b = AppendArch(b, arch)
	params := net.Params()
	b = bytecodec.AppendUvarint(b, uint64(len(params)))
	for _, p := range params {
		b = appendF64s(b, p.Value.Data)
	}
	norms := batchNorms(net)
	b = bytecodec.AppendUvarint(b, uint64(len(norms)))
	for _, bn := range norms {
		b = appendF64s(b, bn.RunMean)
		b = appendF64s(b, bn.RunVar)
	}
	return b
}

func batchNorms(net *Network) []*BatchNorm {
	var norms []*BatchNorm
	for _, l := range net.Layers {
		if bn, ok := l.(*BatchNorm); ok {
			norms = append(norms, bn)
		}
	}
	return norms
}

// readFloatModel decodes a float payload. The architecture is screened
// and planned before anything is allocated, so a corrupted file cannot
// trigger a multi-gigabyte build.
func readFloatModel(payload []byte) (*Arch, *Network, error) {
	r := bytecodec.NewReader(payload)
	ver := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("nn: float model header: %w", err)
	}
	if ver != floatModelVersion {
		return nil, nil, fmt.Errorf("nn: float model payload version %d; this build reads version %d (re-export the model with a matching cmd/deploy)", ver, floatModelVersion)
	}
	arch, err := ReadArch(r)
	if err != nil {
		return nil, nil, fmt.Errorf("nn: float model architecture: %w", err)
	}
	if err := screenArch(arch); err != nil {
		return nil, nil, err
	}
	plan, err := Plan(arch)
	if err != nil {
		return nil, nil, fmt.Errorf("nn: screening architecture: %w", err)
	}
	if plan.Params > 1<<24 {
		return nil, nil, fmt.Errorf("nn: implausible parameter count %d", plan.Params)
	}
	net := plan.build()
	params := net.Params()
	if n := r.Uvarint(); r.Err() == nil && n != uint64(len(params)) {
		return nil, nil, fmt.Errorf("nn: file has %d param tensors, architecture needs %d", n, len(params))
	}
	for i, p := range params {
		if err := readInto(r, p.Value.Data); err != nil {
			return nil, nil, fmt.Errorf("nn: param %d: %w", i, err)
		}
	}
	norms := batchNorms(net)
	if n := r.Uvarint(); r.Err() == nil && n != uint64(len(norms)) {
		return nil, nil, fmt.Errorf("nn: file has %d norm layers, architecture has %d", n, len(norms))
	}
	for i, bn := range norms {
		for _, dst := range [][]float64{bn.RunMean, bn.RunVar} {
			if err := readInto(r, dst); err != nil {
				return nil, nil, fmt.Errorf("nn: norm %d: %w", i, err)
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("nn: float model: %w", err)
	}
	if r.Len() != 0 {
		return nil, nil, fmt.Errorf("nn: float model: %d trailing bytes", r.Len())
	}
	return arch, net, nil
}

// readInto reads one readF64s list into dst, which must match its length.
func readInto(r *bytecodec.Reader, dst []float64) error {
	v := readF64s(r)
	if err := r.Err(); err != nil {
		return err
	}
	if len(v) != len(dst) {
		return fmt.Errorf("file has %d values, architecture needs %d", len(v), len(dst))
	}
	copy(dst, v)
	return nil
}

// screenArch applies the model files' plausibility bounds, which are
// tighter than ReadArch's framing caps and cheaper than a plan.
func screenArch(a *Arch) error {
	if len(a.Input) > 8 {
		return fmt.Errorf("nn: implausible input rank %d", len(a.Input))
	}
	volume := int64(1)
	for _, d := range a.Input {
		if d < 1 || d > 1<<16 {
			return fmt.Errorf("nn: implausible input dimension %d", d)
		}
		volume *= int64(d)
		if volume > 1<<24 {
			return fmt.Errorf("nn: implausible input volume")
		}
	}
	if a.Classes < 2 || a.Classes > 1<<16 {
		return fmt.Errorf("nn: implausible class count %d", a.Classes)
	}
	if len(a.Body) > 1024 {
		return fmt.Errorf("nn: implausible body length %d", len(a.Body))
	}
	for _, s := range a.Body {
		for _, v := range []int{s.Out, s.K, s.Stride, s.Pad} {
			if v < 0 || v > 1<<16 {
				return fmt.Errorf("nn: implausible layer field %d", v)
			}
		}
	}
	return nil
}

// LoadModelContainer reads a float model from the checksummed container.
func LoadModelContainer(r io.Reader) (*Arch, *Network, error) {
	kind, payload, err := readContainer(r)
	if err != nil {
		return nil, nil, err
	}
	if kind != payloadFloat {
		return nil, nil, fmt.Errorf("nn: container holds payload kind %d, want a float model (%d) — pass the int8 export to LoadInt8Model instead", kind, payloadFloat)
	}
	return readFloatModel(payload)
}

// SaveInt8Model writes the quantized model in the checksummed container.
func SaveInt8Model(w io.Writer, m *Int8Model) error {
	return writeContainer(w, payloadInt8, appendInt8Model(nil, m))
}

// LoadInt8Model reads a quantized model from the checksummed container —
// the file cmd/serve consumes.
func LoadInt8Model(r io.Reader) (*Int8Model, error) {
	kind, payload, err := readContainer(r)
	if err != nil {
		return nil, err
	}
	if kind != payloadInt8 {
		return nil, fmt.Errorf("nn: container holds payload kind %d, want an int8 model (%d) — export one with cmd/deploy -qout", kind, payloadInt8)
	}
	return readInt8Model(payload)
}
