package nas

import (
	"fmt"
	"sort"

	"solarml/internal/bytecodec"
	"solarml/internal/dataset"
	"solarml/internal/dsp"
	"solarml/internal/nn"
	"solarml/internal/quant"
)

// GenomeCodecVersion is the version byte leading every encoded candidate.
// Bump it when the Candidate structure changes shape; decoders reject
// versions they do not know rather than misparse.
const GenomeCodecVersion = 1

// resultCodecVersion versions the Result encoding independently (Result
// gains fields on a different schedule than the search space).
const resultCodecVersion = 1

// AppendCandidate appends a versioned binary encoding of c — the "genome"
// serialization behind search checkpoints and the persistent evaluation
// memo. The encoding is a pure function of the candidate (no map order, no
// pointers), so encode→decode→encode is byte-identical, and it covers every
// field Fingerprint covers plus the ones it elides (stride/pad defaults,
// audio sample rate), so a decoded candidate rebuilds the same network.
func AppendCandidate(b []byte, c *Candidate) []byte {
	b = bytecodec.AppendUvarint(b, GenomeCodecVersion)
	b = bytecodec.AppendInt(b, int(c.Task))
	b = bytecodec.AppendInt(b, c.Gesture.Channels)
	b = bytecodec.AppendInt(b, c.Gesture.RateHz)
	b = bytecodec.AppendInt(b, int(c.Gesture.Quant.Res))
	b = bytecodec.AppendInt(b, c.Gesture.Quant.Bits)
	b = bytecodec.AppendInt(b, c.Audio.SampleRate)
	b = bytecodec.AppendInt(b, c.Audio.StripeMS)
	b = bytecodec.AppendInt(b, c.Audio.DurationMS)
	b = bytecodec.AppendInt(b, c.Audio.NumFeatures)
	return nn.AppendArch(b, c.Arch)
}

// ReadCandidate decodes one candidate from r.
func ReadCandidate(r *bytecodec.Reader) (*Candidate, error) {
	if v := r.Uvarint(); r.Err() == nil && v != GenomeCodecVersion {
		return nil, fmt.Errorf("nas: unknown genome codec version %d (have %d)", v, GenomeCodecVersion)
	}
	c := &Candidate{}
	c.Task = Task(r.Int())
	c.Gesture = dataset.GestureConfig{
		Channels: r.Int(), RateHz: r.Int(),
		Quant: quant.Config{Res: quant.Resolution(r.Int()), Bits: r.Int()},
	}
	c.Audio = dsp.FrontEndConfig{
		SampleRate: r.Int(), StripeMS: r.Int(), DurationMS: r.Int(), NumFeatures: r.Int(),
	}
	arch, err := nn.ReadArch(r)
	if err != nil {
		return nil, fmt.Errorf("nas: decode candidate: %w", err)
	}
	c.Arch = arch
	return c, nil
}

// AppendResult appends a versioned binary encoding of res. MACsByKind is
// written in sorted key order so the encoding is deterministic.
func AppendResult(b []byte, res Result) []byte {
	b = bytecodec.AppendUvarint(b, resultCodecVersion)
	b = bytecodec.AppendF64(b, res.Accuracy)
	b = bytecodec.AppendF64(b, res.SensingJ)
	b = bytecodec.AppendF64(b, res.InferJ)
	b = bytecodec.AppendF64(b, res.EnergyJ)
	b = bytecodec.AppendVarint(b, res.TotalMACs)
	kinds := make([]int, 0, len(res.MACsByKind))
	for k := range res.MACsByKind {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	b = bytecodec.AppendUvarint(b, uint64(len(kinds)))
	for _, k := range kinds {
		b = bytecodec.AppendInt(b, k)
		b = bytecodec.AppendVarint(b, res.MACsByKind[nn.LayerKind(k)])
	}
	return b
}

// ReadResult decodes one result from r.
func ReadResult(r *bytecodec.Reader) (Result, error) {
	var res Result
	if v := r.Uvarint(); r.Err() == nil && v != resultCodecVersion {
		return res, fmt.Errorf("nas: unknown result codec version %d (have %d)", v, resultCodecVersion)
	}
	res.Accuracy = r.F64()
	res.SensingJ = r.F64()
	res.InferJ = r.F64()
	res.EnergyJ = r.F64()
	res.TotalMACs = r.Varint()
	if n := r.Uvarint(); r.Err() == nil && n > 0 {
		if n > 256 {
			return res, fmt.Errorf("nas: implausible MAC kind count %d", n)
		}
		res.MACsByKind = make(map[nn.LayerKind]int64, n)
		for i := uint64(0); i < n; i++ {
			k := nn.LayerKind(r.Int())
			res.MACsByKind[k] = r.Varint()
		}
	}
	if err := r.Err(); err != nil {
		return res, fmt.Errorf("nas: decode result: %w", err)
	}
	return res, nil
}
