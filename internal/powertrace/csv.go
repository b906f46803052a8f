package powertrace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV streams the trace as (t_s, power_w) rows at the given sample
// rate — the interchange format of bench-top power analyzers.
func (r *Recorder) WriteCSV(w io.Writer, rateHz float64) error {
	if rateHz <= 0 {
		return fmt.Errorf("powertrace: invalid sample rate %v", rateHz)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_s", "power_w"}); err != nil {
		return err
	}
	for i, p := range r.Samples(rateHz) {
		if err := cw.Write([]string{
			strconv.FormatFloat(float64(i)/rateHz, 'g', -1, 64),
			strconv.FormatFloat(p, 'g', -1, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a (t_s, power_w) sample stream and reconstructs a trace
// by merging consecutive equal-power samples into segments. Phases are
// lost in the interchange format, so every segment is labeled Unlabeled
// via PhaseSampling-free accounting: callers re-segment if they need
// E_E/E_S/E_M; energy integrals and rendering work as-is.
func ReadCSV(rd io.Reader) (*Recorder, error) {
	cr := csv.NewReader(rd)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("powertrace: CSV has no samples")
	}
	if len(rows[0]) != 2 || rows[0][0] != "t_s" || rows[0][1] != "power_w" {
		return nil, fmt.Errorf("powertrace: unexpected header %v", rows[0])
	}
	var times, powers []float64
	for i, row := range rows[1:] {
		if len(row) != 2 {
			return nil, fmt.Errorf("powertrace: row %d has %d fields", i+1, len(row))
		}
		t, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("powertrace: row %d time: %w", i+1, err)
		}
		p, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("powertrace: row %d power: %w", i+1, err)
		}
		if len(times) > 0 && t <= times[len(times)-1] {
			return nil, fmt.Errorf("powertrace: non-increasing time at row %d", i+1)
		}
		times = append(times, t)
		powers = append(powers, p)
	}
	if len(times) < 2 {
		return nil, fmt.Errorf("powertrace: need ≥2 samples to infer the sample period")
	}
	// Infer the sample period from the first gap (uniform sampling).
	dt := times[1] - times[0]
	out := New()
	runStart := 0
	for i := 1; i <= len(powers); i++ {
		if i < len(powers) && powers[i] == powers[runStart] {
			continue
		}
		out.Record(PhaseSampling, float64(i-runStart)*dt, powers[runStart])
		runStart = i
	}
	return out, nil
}

// MeanAbsPowerDiff compares two traces sampled at rateHz over their common
// duration, returning the mean absolute power difference in watts — used
// to validate reconstructed traces against originals.
func MeanAbsPowerDiff(a, b *Recorder, rateHz float64) float64 {
	dur := a.Duration()
	if d := b.Duration(); d < dur {
		dur = d
	}
	n := int(dur * rateHz)
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		t := float64(i) / rateHz
		d := a.PowerAt(t) - b.PowerAt(t)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(n)
}
