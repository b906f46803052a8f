package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// stamp identifies the host and the code a result was measured on.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit and Dirty come from git when the benchmark runs in a git
	// checkout, and read "unknown" otherwise.
	Commit string `json:"commit"`
	Dirty  string `json:"dirty"`
}

// host is the part of the stamp two comparable results must share.
func (s stamp) host() string {
	return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s", s.CPU, s.NProc, s.GoMaxProcs, s.GoVersion)
}

func hostStamp() stamp {
	s := stamp{
		CPU: "unknown", NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Dirty: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Only ask git when the working directory is itself a checkout, so git
	// never searches the directories above it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			s.Commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			s.Dirty = fmt.Sprint(len(strings.TrimSpace(string(out))) > 0)
		}
	}
	return s
}

// compare reads two --out files and prints, per workload and metric, the
// medians and the change against the metric's bound. It refuses to compare
// results whose host stamps differ, and fails when a metric got worse by
// more than its bound.
func compare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: perfbench compare old.jsonl new.jsonl")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	var sets [2][]record
	for i, path := range args {
		if sets[i], err = readRecords(path); err != nil {
			return err
		}
		if len(sets[i]) == 0 {
			return fmt.Errorf("%s holds no records", path)
		}
	}
	host := sets[0][0].Stamp.host()
	for i, set := range sets {
		for _, rec := range set {
			if h := rec.Stamp.host(); h != host {
				return fmt.Errorf("refusing to compare: %s was measured on %q, not %q", args[i], h, host)
			}
		}
	}
	fmt.Fprintf(w, "host: %s\nold: %s\nnew: %s\n", host, commits(sets[0]), commits(sets[1]))
	worse := 0
	for _, wl := range sp.Workloads {
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			a, b := values(sets[0], wl.Name, m.Name), values(sets[1], wl.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			change := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				change = -change
			}
			verdict := ""
			if m.Bound > 0 {
				verdict = "ok"
				if change > m.Bound {
					verdict = "WORSE"
					worse++
				}
			}
			fmt.Fprintf(w, "%-16s %-28s %12.5g → %12.5g %s  worse by %+6.1f%% (n=%d/%d) %s\n",
				wl.Name, m.Name, ma, mb, m.Unit, 100*change, len(a), len(b), verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var rec record
		if err := dec.Decode(&rec); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
}

func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

func commits(recs []record) string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs {
		c := r.Stamp.Commit
		if r.Stamp.Dirty == "true" {
			c += "-dirty"
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return strings.Join(out, ", ")
}
