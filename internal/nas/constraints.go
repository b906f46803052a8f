package nas

import (
	"fmt"

	"solarml/internal/nn"
)

// Constraints are the hard limits every candidate must satisfy (§V-D: 100 KB
// memory, 30 M MACs, task-specific error caps — 0.25 for digit gestures,
// 0.3 for KWS).
type Constraints struct {
	// MemoryBytes bounds weights + activations at the quantized widths.
	MemoryBytes int64
	// MaxMACs bounds the per-inference MAC count.
	MaxMACs int64
	// MaxError bounds 1 − accuracy; checked after evaluation.
	MaxError float64
}

// DefaultConstraints returns the paper's evaluation settings for the task.
func DefaultConstraints(task Task) Constraints {
	c := Constraints{MemoryBytes: 100 * 1024, MaxMACs: 30_000_000}
	if task == TaskGesture {
		c.MaxError = 0.25
	} else {
		c.MaxError = 0.30
	}
	return c
}

// CheckStatic verifies the structural constraints (memory, MACs) that can
// be checked without training, from the architecture's plan alone.
func (ct Constraints) CheckStatic(c *Candidate) error {
	p, err := nn.Plan(c.Arch)
	if err != nil {
		return err
	}
	if p.TotalMACs > ct.MaxMACs {
		return fmt.Errorf("nas: %d MACs exceeds limit %d", p.TotalMACs, ct.MaxMACs)
	}
	// KWS models store int8 weights as in μNAS; sub-byte gesture weights
	// are stored byte-packed on the MCU.
	wb := 8
	if c.Task == TaskGesture {
		wb = max(c.Gesture.Quant.Bits, 8)
	}
	if mem := p.MemoryBytes(wb, 8); mem > ct.MemoryBytes {
		return fmt.Errorf("nas: %d B memory exceeds limit %d", mem, ct.MemoryBytes)
	}
	return nil
}

// CheckAccuracy verifies the error cap after evaluation.
func (ct Constraints) CheckAccuracy(acc float64) error {
	if 1-acc > ct.MaxError {
		return fmt.Errorf("nas: error %.3f exceeds cap %.3f", 1-acc, ct.MaxError)
	}
	return nil
}
