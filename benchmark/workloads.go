package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"mkbas/internal/attack"
	"mkbas/internal/bas"
	"mkbas/internal/building"
	"mkbas/internal/lab"
	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/tenantapi"
	"mkbas/internal/tenantapi/loadgen"
)

// Workload sizes. Each is batch work at a fixed input size: the simulator
// is offline, so there is no host-time arrival process to model.
const (
	// matrixSweep is the paper's full attack matrix: every registered
	// platform × every board attack × both attacker models, 50 cases.
	matrixSweep = "platforms=all;actions=all;models=both"
	// fleetRooms and fleetRounds size one building-fleet episode: a
	// 64-room building stepped for one virtual hour of 1 s rounds.
	fleetRooms  = 64
	fleetRounds = 3600
	// campaignRequests and campaignShards size one tenant-api campaign, the
	// load generator's standard million-request run.
	campaignRequests = 1_000_000
	campaignShards   = 64
	// setupBatch is how many set-ups one set-up sample times, for a
	// workload whose set-up is not repeated by its own loop. Such a workload
	// takes samples before the loop and again after every pass, so that
	// setup_s, the median over the samples, spans the whole run rather than
	// its first fraction of a second.
	setupBatch = 5
)

// workload is one named benchmark input.
type workload struct {
	name string
	// run executes the workload's timed loop for about budget (at least one
	// pass), checking each unit against refs (nil: collect only).
	run func(p params) (*runStats, error)
	// poolPhase is the profiler phase of one worker-pool task, mergePhase
	// the phase of the merge of per-unit results ("" when the benchmark
	// times the merge itself).
	poolPhase, mergePhase string
	// labSeeded marks a workload whose traced pass goes through a program
	// entry point with no seed axis, so it runs at the default scenario
	// seed rather than the run's input seed.
	labSeeded bool
	// oneTracedPass limits the traced pass to one pass: the profiler
	// timeline keeps one slice per pool task, and a building episode has
	// 230k of them.
	oneTracedPass bool
}

// params configures one run of a workload's loop.
type params struct {
	input   int64
	budget  time.Duration
	workers int
	refs    map[string]string
	// prof, when set, is attached through the public Profiler fields.
	prof *perf.Profiler
}

// runStats is what a workload loop measured.
type runStats struct {
	work     float64   // work units completed in the timed loop
	loopNs   float64   // host time of the timed loop
	rates    []float64 // work units per host second of each pass
	stepMs   []float64 // host time of each timed step
	setupS   []float64 // host time of each set-up
	allocs   uint64    // heap allocations in the timed loop
	passes   int       // passes (matrices, episodes, campaigns) completed
	check    *checker
	counts   map[string]float64 // layer counts from the first pass
	mergeUs  []float64          // host time of each merge of per-unit results
	profSnap *perf.Snapshot     // profiler skeleton after the first pass
}

var workloadList = []workload{
	{name: "verdict-matrix", run: runMatrix, poolPhase: "lab.shard", mergePhase: "lab.merge", labSeeded: true},
	{name: "building-fleet", run: runFleet, poolPhase: "building.board_step", oneTracedPass: true},
	{name: "tenant-api", run: runTenant, poolPhase: "loadgen.shard", mergePhase: "loadgen.merge"},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digests runs one pass of the workload on input and returns its unit
// digests, for recording references.
func (w workload) digests(input int64) (map[string]string, error) {
	st, err := w.run(params{input: input, workers: workers})
	if err != nil {
		return nil, err
	}
	return st.check.got, nil
}

// measure runs the untraced loop at an input seed and reports the
// end-to-end metrics.
func (w workload) measure(refs *references, input int64, budget time.Duration) (*outcome, error) {
	units, err := refs.units(w.name, input)
	if err != nil {
		return nil, err
	}
	st, err := w.run(params{input: input, budget: budget, workers: workers, refs: units})
	if err != nil {
		return nil, err
	}
	m := metricSet{}
	m.add("work_per_sec", "1/s", st.rates...)
	m.add("step_ms_p50", "ms", quantile(st.stepMs, 0.50))
	m.add("step_ms_p90", "ms", quantile(st.stepMs, 0.90))
	m.add("setup_s", "s", st.setupS...)
	m.add("allocs_per_unit", "allocs/unit", float64(st.allocs)/st.work)
	m.add("peak_rss_mb", "MB", peakRSSMB())
	return &outcome{metrics: m, attempted: st.check.attempted, failed: st.check.failed}, nil
}

// addPass books one timed pass of work units.
func (st *runStats) addPass(work float64, d time.Duration) {
	st.work += work
	st.loopNs += float64(d)
	st.rates = append(st.rates, work/d.Seconds())
	st.passes++
}

// done reports whether a loop that has used elapsed of its budget, and whose
// last pass took last, should stop: it runs the number of passes whose total
// comes nearest the budget, so that the matrix's 10-12 s passes do not leave
// up to a quarter of the budget unmeasured.
func done(elapsed, last, budget time.Duration) bool {
	return elapsed+last/2 >= budget
}

// rate is the median pass's work units per host second.
func (st *runStats) rate() float64 { return quantile(st.rates, 0.5) }

// sampleSetup takes n set-up samples of setupBatch calls each and books,
// per sample, the host seconds of one call. Each sample starts after a
// forced collection, so no GC owed by earlier work lands in it.
func (st *runStats) sampleSetup(n int, setup func() error) error {
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		for j := 0; j < setupBatch; j++ {
			if err := setup(); err != nil {
				return err
			}
		}
		st.setupS = append(st.setupS, time.Since(start).Seconds()/setupBatch)
	}
	return nil
}

// runMatrix runs whole attack matrices, one fresh board per case, with the
// case's scenario seeded from the input. Untraced, the cases go through the
// lab's worker pool and attack.ExecuteScenario, because lab.Run has no seed
// axis. Traced, a pass is lab.Run itself with the profiler attached, at the
// default scenario seed, so the pool and merge figures are the program's.
func runMatrix(p params) (*runStats, error) {
	sweep, err := lab.ParseSweep(matrixSweep)
	if err != nil {
		return nil, err
	}
	st := &runStats{check: newChecker(p.refs)}
	var cases []lab.Case
	var scenarios []bas.ScenarioConfig
	// Set-up: expand the sweep, derive each case's scenario, and boot each
	// case's platform once, so lazily built state is warm before timing.
	setup := func() error {
		cases = sweep.Expand()
		scenarios = make([]bas.ScenarioConfig, len(cases))
		for i, c := range cases {
			sc, err := c.Plant.Scenario()
			if err != nil {
				return err
			}
			sc.Seed = p.input
			scenarios[i] = sc
			tb := bas.NewTestbed(sc)
			_, err = bas.Deploy(c.Platform, tb, sc, bas.DeployOptions{})
			tb.Machine.Shutdown()
			if err != nil {
				return fmt.Errorf("warm-up boot of %s: %w", c, err)
			}
		}
		return nil
	}
	if err := st.sampleSetup(3, setup); err != nil {
		return nil, err
	}

	virtual := attack.RunDuration().Seconds()
	reports := make([]*attack.Report, len(cases))
	for pass := 0; ; pass++ {
		a0 := heapAllocs()
		start := time.Now()
		if p.prof != nil {
			var res *lab.Result
			res, err = lab.Run(sweep, lab.Options{Workers: p.workers, Profiler: p.prof})
			if err == nil {
				for i, sr := range res.Cases {
					reports[i] = sr.Report
				}
			}
		} else {
			err = lab.ForEachShard("lab", len(cases), p.workers, nil, func(i int) error {
				r, err := attack.ExecuteScenario(cases[i].Spec(), scenarios[i])
				reports[i] = r
				return err
			})
		}
		wall := time.Since(start)
		st.allocs += heapAllocs() - a0
		if err != nil {
			return nil, err
		}
		st.addPass(float64(len(cases))*virtual, wall)
		// A step is one regeneration of the whole verdict table, the wait a
		// user sees; single cases are the traced run's pool tasks.
		st.stepMs = append(st.stepMs, float64(wall)/1e6)
		for i, r := range reports {
			st.check.check(fmt.Sprintf("case-%02d", i), caseDigest(r))
		}
		if pass == 0 {
			st.counts = matrixCounts(reports)
			st.profSnap = p.prof.Snapshot(false)
		}
		if done(time.Duration(st.loopNs), wall, p.budget) {
			return st, nil
		}
		if err := st.sampleSetup(3, setup); err != nil {
			return nil, err
		}
	}
}

// runFleet runs building-fleet episodes: build the 64-room building, step
// it fleetRounds lockstep rounds (each round timed), check every room.
func runFleet(p params) (*runStats, error) {
	mix, err := lab.Mix("paper").Platforms()
	if err != nil {
		return nil, err
	}
	secure, err := lab.SecurePattern("even").Rooms(fleetRooms)
	if err != nil {
		return nil, err
	}
	cfg := building.Config{
		Rooms:     fleetRooms,
		Mix:       mix,
		Secure:    secure,
		Scenario:  bas.ScenarioConfig{Seed: p.input},
		Workers:   p.workers,
		Monitor:   true,
		TenantAPI: true,
		Profiler:  p.prof,
	}
	st := &runStats{check: newChecker(p.refs)}
	start := time.Now()
	for ep := 0; ; ep++ {
		epStart := time.Now()
		b, err := building.New(cfg)
		if err != nil {
			return nil, err
		}
		st.setupS = append(st.setupS, time.Since(epStart).Seconds())
		a0 := heapAllocs()
		var loop time.Duration
		for r := 0; r < fleetRounds; r++ {
			t := time.Now()
			b.Step()
			d := time.Since(t)
			loop += d
			st.stepMs = append(st.stepMs, float64(d)/1e6)
		}
		st.allocs += heapAllocs() - a0
		st.addPass(float64(fleetRooms*fleetRounds)*b.Slice().Seconds(), loop)

		mergeStart := time.Now()
		rep := b.Report()
		st.mergeUs = append(st.mergeUs, float64(time.Since(mergeStart))/1e3)
		boards := make([]*obs.Report, len(b.Rooms))
		for i, rr := range rep.RoomReports {
			boards[i] = b.Rooms[i].Dep.Report(false)
			st.check.check(fmt.Sprintf("room-%02d", i), roomDigest(rr, boards[i]))
		}
		st.check.check("building", buildingDigest(rep))
		if ep == 0 {
			st.counts = fleetCounts(rep, boards)
			st.profSnap = p.prof.Snapshot(false)
		}
		b.Close()
		if done(time.Since(start), time.Since(epStart), p.budget) {
			return st, nil
		}
	}
}

// runTenant runs standard load-generator campaigns against shard-local
// tenant gateways; no board is involved.
func runTenant(p params) (*runStats, error) {
	plan := loadgen.Plan{
		Seed:     uint64(p.input),
		Requests: campaignRequests,
		Shards:   campaignShards,
		Workers:  p.workers,
		Profiler: p.prof,
	}
	st := &runStats{check: newChecker(p.refs)}
	// Set-up: a campaign of one request per shard, so every shard builds
	// its gateway stack (directory, backend, gateway) and little else.
	setupPlan := plan
	setupPlan.Requests = campaignShards
	setupPlan.Profiler = nil
	setup := func() error {
		_, err := loadgen.Run(setupPlan)
		return err
	}
	if err := st.sampleSetup(1, setup); err != nil {
		return nil, err
	}

	for pass := 0; ; pass++ {
		a0 := heapAllocs()
		start := time.Now()
		rep, err := loadgen.Run(plan)
		wall := time.Since(start)
		st.allocs += heapAllocs() - a0
		if err != nil {
			return nil, err
		}
		st.addPass(float64(rep.Requests), wall)
		st.stepMs = append(st.stepMs, float64(wall)/1e6)
		for i, s := range rep.Shards {
			st.check.check(fmt.Sprintf("shard-%02d", i), shardDigest(s))
		}
		st.check.check("campaign", campaignDigest(rep))
		if pass == 0 {
			st.counts = tenantCounts(rep.Outcomes)
			st.profSnap = p.prof.Snapshot(false)
		}
		if done(time.Duration(st.loopNs), wall, p.budget) {
			return st, nil
		}
		if err := st.sampleSetup(1, setup); err != nil {
			return nil, err
		}
	}
}

// Layer counts, read from the obs counters and tallies the reports carry.

func addMachineCounters(c map[string]float64, cs []obs.CounterSnap) {
	for _, s := range cs {
		switch s.Name {
		case "machine_traps_total":
			c["machine.traps"] += float64(s.Value)
		case "machine_context_switches_total":
			c["machine.context_switches"] += float64(s.Value)
		case "machine_dispatches_total":
			c["machine.dispatches"] += float64(s.Value)
		case "machine_spawns_total":
			c["machine.spawns"] += float64(s.Value)
		case "bacnet_frames_accepted_total", "bacnet_frames_rejected_total":
			c["bacnet.frames"] += float64(s.Value)
		}
	}
}

func addEventTotals(c map[string]float64, ts []obs.EventTotal) {
	for _, t := range ts {
		c["obs.security_events"] += float64(t.Count)
		if t.Denied {
			c["denied."+string(t.Mechanism)] += float64(t.Count)
		}
	}
}

func tenantCounts(outcomes map[string]int64) map[string]float64 {
	c := map[string]float64{}
	for k, v := range outcomes {
		switch k {
		case tenantapi.OutcomeOK.String():
			c["tenantapi.requests_ok"] += float64(v)
		case tenantapi.OutcomeUnauthorized.String(), tenantapi.OutcomeForbidden.String(),
			tenantapi.OutcomeRateLimited.String(), tenantapi.OutcomeOverload.String():
			c["tenantapi.requests_denied"] += float64(v)
		}
		c["outcome."+k] += float64(v)
	}
	return c
}

func matrixCounts(reports []*attack.Report) map[string]float64 {
	c := map[string]float64{}
	for _, r := range reports {
		addMachineCounters(c, r.Obs.Counters)
		addEventTotals(c, r.Obs.EventTotals)
		if r.MonitorStats != nil {
			c["monitor.observations"] += float64(r.MonitorStats.Observed)
		}
	}
	return c
}

func fleetCounts(rep *building.Report, boards []*obs.Report) map[string]float64 {
	c := map[string]float64{}
	for i, b := range boards {
		addMachineCounters(c, b.Counters)
		addEventTotals(c, b.EventTotals)
		if m := rep.RoomReports[i].Monitor; m != nil {
			c["monitor.observations"] += float64(m.Observed)
		}
	}
	if rep.API != nil {
		// The tier runs on the coordinator between rounds, outside board
		// steps, so only its request totals are kept.
		t := tenantCounts(rep.API.Outcomes)
		c["tenantapi.requests_ok"] = t["tenantapi.requests_ok"]
		c["tenantapi.requests_denied"] = t["tenantapi.requests_denied"]
	}
	return c
}

// heapAllocs reads the runtime's cumulative heap-allocation count.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
