package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report gathers one run's metrics, notes and failed checks.
type report struct {
	steal0, ticks0 uint64 // cpuTicks at the start of the run
	workload       string
	seed           int64
	trace          int
	metrics        map[string]metric
	extras         map[string]metric // printed and recorded, but not in the result
	samples        map[string]int
	notes          []string
	problems       []string
	attempted      int
	failed         int
}

// set records a metric measured over n samples. A value that could not be
// measured fails the run.
func (r *report) set(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s not measured", name)
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if r.samples == nil {
		r.samples = map[string]int{}
	}
	r.samples[name] = n
}

// extra records a figure the run prints and keeps in its record but leaves
// out of the result line, because BENCHMARK.json does not bound it.
func (r *report) extra(name, unit string, v float64, n int) {
	if r.extras == nil {
		r.extras = map[string]metric{}
	}
	if r.samples == nil {
		r.samples = map[string]int{}
	}
	r.extras[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// countLoad adds an open-loop phase to the operation counts and checks its
// answers. Every request of the fixed-rate phase must be served; a ladder
// rung past capacity may refuse requests — that is what it measures — but
// none may fail or answer wrongly.
func (r *report) countLoad(phase string, ls *loadStats, allServed bool) {
	r.attempted += ls.attempted
	r.failed += ls.failed
	if allServed {
		r.failed += ls.refused
		if ls.refused > 0 {
			r.problem("%s: %d requests refused", phase, ls.refused)
		}
	}
	if ls.failed > 0 {
		r.problem("%s: %d requests failed", phase, ls.failed)
	}
	if ls.wrong > 0 {
		r.problem("%s: %d served results disagree with the single-machine forward pass", phase, ls.wrong)
	}
}

// cpuTicks reads the machine's CPU time counters: time stolen by the
// hypervisor for other guests, and the total. Zero when unavailable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// fingerprint describes the machine a record was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
	}
}

// print writes the human-readable report, the full record and, last, the
// result line. It returns the exit code: non-zero when a check failed.
func (r *report) print() int {
	fp := fingerprint()
	fp["steal_share"] = 0.0
	if steal, ticks := cpuTicks(); ticks > r.ticks0 {
		fp["steal_share"] = float64(steal-r.steal0) / float64(ticks-r.ticks0)
	}
	fmt.Printf("perfbench %s seed=%d trace=%d  nproc=%v gomaxprocs=%v cpu=%q %v steal_share=%.3f\n",
		r.workload, r.seed, r.trace, fp["nproc"], fp["gomaxprocs"], fp["cpu"], fp["go"], fp["steal_share"])
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-28s %14.6g %-6s (n=%d)\n", n, m.Value, m.Unit, r.samples[n])
	}
	for n, m := range r.extras {
		fmt.Printf("  %-28s %14.6g %-6s (n=%d, not bounded, not in the result)\n", n, m.Value, m.Unit, r.samples[n])
	}
	for _, p := range r.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	correct := len(r.problems) == 0
	if r.attempted < 1 {
		r.attempted = 1 // the run itself, when it stopped before any operation
		r.failed = 1
		correct = false
	}
	record, _ := json.Marshal(map[string]any{
		"record": map[string]any{
			"workload": r.workload, "seed": r.seed, "trace": r.trace,
			"machine": fp, "metrics": r.metrics, "extra": r.extras, "samples": r.samples,
			"problems": r.problems,
		},
	})
	fmt.Println(string(record))
	result, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": r.metrics,
	})
	fmt.Println(string(result))
	if !correct {
		return 1
	}
	return 0
}
