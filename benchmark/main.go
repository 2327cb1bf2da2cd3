// Command mkbench is the repository benchmark: it runs one named workload
// against the simulator's public packages, times every call into them from
// outside, checks the simulated output against recorded reference digests,
// and prints one JSON result line.
//
//	mkbench --workload verdict-matrix --seed 3 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with no profiler attached.
// --trace 1 attaches perf.Profiler through the public Profiler fields, times
// the layer ledger, and reports the per-layer metrics instead.
//
//	mkbench -record reference.json
//
// re-records the reference digests (run it only on a commit whose simulated
// output is known good). See NOTES.md for the workload and metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// workers is the pool width every workload runs at: one worker per CPU of
// the two-CPU host the benchmark was calibrated on. It is fixed, not taken
// from the host, so records from different hosts run the same program.
const workers = 2

// metric is one reported figure: its samples within this run (the value is
// their median) and its unit.
type metric struct {
	unit    string
	samples []float64
}

// metricSet maps metric names to their samples.
type metricSet map[string]*metric

func (m metricSet) add(name, unit string, v ...float64) {
	e, ok := m[name]
	if !ok {
		e = &metric{unit: unit}
		m[name] = e
	}
	e.samples = append(e.samples, v...)
}

// outcome is what one workload run hands back to main.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
}

func main() {
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 15, "measured host seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	record := flag.String("record", "", "write reference digests for every workload to this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordReferences(*record); err != nil {
			fail(err)
		}
		return
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (known: %v)", *workload, workloadNames()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	refs, err := loadReferences()
	if err != nil {
		fail(err)
	}
	input := refs.input(*seed)
	budget := time.Duration(*seconds) * time.Second
	var out *outcome
	if *trace == 0 {
		out, err = w.measure(refs, input, budget)
	} else {
		out, err = traced(w, refs, input, budget)
	}
	if err != nil {
		fail(err)
	}
	emit(w.name, *seed, input, *trace, out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mkbench:", err)
	os.Exit(1)
}

// emit prints the human-readable table, the stamped record with quartiles,
// and, last, the result line.
func emit(workload string, seed, input int64, trace int, out *outcome) {
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		names = append(names, name)
	}
	sort.Strings(names)

	type summary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		N      int     `json:"n"`
		Unit   string  `json:"unit"`
	}
	record := struct {
		Workload   string             `json:"workload"`
		Seed       int64              `json:"seed"`
		InputSeed  int64              `json:"input_seed"`
		Trace      int                `json:"trace"`
		Workers    int                `json:"workers"`
		HostCPUs   int                `json:"host_cpus"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		GoVersion  string             `json:"go_version"`
		Metrics    map[string]summary `json:"metrics"`
	}{workload, seed, input, trace, workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), map[string]summary{}}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, map[string]value{}}

	for _, name := range names {
		m := out.metrics[name]
		s := summary{
			Median: quantile(m.samples, 0.5),
			Q1:     quantile(m.samples, 0.25),
			Q3:     quantile(m.samples, 0.75),
			N:      len(m.samples),
			Unit:   m.unit,
		}
		record.Metrics[name] = s
		result.Metrics[name] = value{s.Median, m.unit}
		fmt.Printf("%-34s %16.6g %-12s (q1 %.6g, q3 %.6g, n=%d)\n", name, s.Median, m.unit, s.Q1, s.Q3, s.N)
	}
	fmt.Printf("units checked: %d, digest mismatches: %d\n", out.attempted, out.failed)
	rec, _ := json.Marshal(map[string]any{"record": record})
	fmt.Println(string(rec))
	line, _ := json.Marshal(result)
	fmt.Println(string(line))
}

// quantile is the linearly interpolated q-quantile of xs (xs is not
// modified); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
