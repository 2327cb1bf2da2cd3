package main

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"time"

	"mkbas/internal/bas"
	"mkbas/internal/perf"
)

// countMetrics are the per-layer counts every traced run reports, read from
// the obs counters and tallies of the workload's first pass. A layer the
// workload never crosses reports 0.
var countMetrics = []string{
	"machine.traps", "machine.context_switches", "machine.dispatches", "machine.spawns",
	"obs.security_events", "monitor.observations", "bacnet.frames",
	"tenantapi.requests_ok", "tenantapi.requests_denied", "bas.deploys",
}

// traced is the --trace 1 run: an untraced pass (the reference rate for
// trace.overhead_pct, and the GC figures), a pass with perf.Profiler
// attached through the public Profiler fields (layer counts, worker-pool
// timeline), then the layer ledger.
func traced(w workload, refs *references, input int64, budget time.Duration) (*outcome, error) {
	plainRefs, err := refs.units(w.name, input)
	if err != nil {
		return nil, err
	}
	tracedInput := input
	if w.labSeeded {
		tracedInput = bas.DefaultScenario().Seed
	}
	tracedRefs, err := refs.units(w.name, tracedInput)
	if err != nil {
		return nil, err
	}

	gc0 := readGC()
	plain, err := w.run(params{input: input, budget: budget / 2, workers: workers, refs: plainRefs})
	if err != nil {
		return nil, err
	}
	gc1 := readGC()

	prof := perf.New(perf.Options{Timeline: true})
	tracedBudget := budget / 2
	if w.oneTracedPass {
		tracedBudget = 0
	}
	tr, err := w.run(params{input: tracedInput, budget: tracedBudget, workers: workers, refs: tracedRefs, prof: prof})
	if err != nil {
		return nil, err
	}
	tasks, err := timelineUs(prof, w.poolPhase)
	if err != nil {
		return nil, err
	}
	snap := prof.Snapshot(true)

	m, err := runLedger()
	if err != nil {
		return nil, err
	}
	tr.counts["bas.deploys"] = float64(phase(tr.profSnap, "bas.deploy").Count)
	for _, name := range countMetrics {
		m.add(name, "count", tr.counts[name])
	}

	var busyNs float64
	for _, us := range tasks {
		busyNs += us * 1e3
	}
	m.add("pool.task_us_p50", "us", quantile(tasks, 0.50))
	m.add("pool.task_us_p99", "us", quantile(tasks, 0.99))
	m.add("pool.idle_share", "share", 1-busyNs/(float64(workers)*tr.loopNs))
	merge := tr.mergeUs
	if len(merge) == 0 {
		if ph := phase(snap, w.mergePhase); ph.Count > 0 {
			merge = []float64{float64(ph.TotalNs) / float64(ph.Count) / 1e3}
		}
	}
	m.add("pool.merge_us", "us", merge...)

	// The steps' p99 has no end-to-end bound: on building-fleet it is the
	// lockstep straggler, and a slow spell of a shared host triples it.
	m.add("tail.step_ms_p99", "ms", quantile(plain.stepMs, 0.99))
	m.add("runtime.gc_cpu_share", "share", (gc1.gcCPU-gc0.gcCPU)/(gc1.totalCPU-gc0.totalCPU))
	m.add("runtime.gc_cycles", "count", gc1.cycles-gc0.cycles)

	m.add("ledger.explained_share", "share", float64(tr.passes)*explainedNs(m, tr.counts)/busyNs)
	m.add("trace.overhead_pct", "%", 100*(plain.rate()-tr.rate())/plain.rate())

	attempted := plain.check.attempted + tr.check.attempted
	failed := plain.check.failed + tr.check.failed
	return &outcome{metrics: m, attempted: attempted, failed: failed}, nil
}

// explainedNs is the host time the ledger accounts for in one pass: each
// layer count times that layer's ledger cost. Denials are charged their
// ledger cost beyond the plain trap they also count as; tenant requests are
// charged by outcome, with validation failures (400, 404) at the cost of
// the branch they share the path with.
func explainedNs(m metricSet, c map[string]float64) float64 {
	cost := func(name string) float64 { return quantile(m[name].samples, 0.5) }
	dispatch := cost("machine.dispatch_ns")
	ns := c["machine.traps"]*dispatch +
		c["machine.context_switches"]*cost("machine.switch_ns") +
		c["monitor.observations"]*cost("monitor.observe_ns") +
		c["bacnet.frames"]*cost("bacnet.decode_ns") +
		c["denied.acm"]*(cost("minix.send_denied_ns")-dispatch) +
		c["denied.capability"]*(cost("sel4.cap_fault_ns")-dispatch) +
		c["denied.dac"]*(cost("linuxsim.mq_denied_ns")-dispatch) +
		c["denied.syscall-mask"]*(cost("minix.fork_denied_ns")-cost("minix.sendrec_ns"))
	ns += c["outcome.ok"]*cost("tenantapi.handle_ok_ns") +
		c["outcome.bad-request"]*cost("tenantapi.handle_ok_ns") +
		c["outcome.unauthorized"]*cost("tenantapi.handle_unauthorized_ns") +
		c["outcome.forbidden"]*cost("tenantapi.handle_forbidden_ns") +
		c["outcome.not-found"]*cost("tenantapi.handle_forbidden_ns") +
		c["outcome.rate-limited"]*cost("tenantapi.handle_rate_limited_ns") +
		c["outcome.overload"]*cost("tenantapi.handle_overload_ns")
	return ns
}

// timelineUs returns the duration, in microseconds, of every retained
// timeline slice of the named phase.
func timelineUs(prof *perf.Profiler, phaseName string) ([]float64, error) {
	raw, err := prof.ChromeTrace(false)
	if err != nil {
		return nil, err
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				Phase string `json:"phase"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		return nil, fmt.Errorf("reading the profiler timeline: %w", err)
	}
	var out []float64
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && e.Args.Phase == phaseName {
			out = append(out, e.Dur)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("profiler timeline holds no %s slices", phaseName)
	}
	return out, nil
}

// gcSample is a reading of the runtime's GC accounting.
type gcSample struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcSample{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}
