package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
	"time"

	"mkbas/internal/attack"
	"mkbas/internal/building"
	"mkbas/internal/obs"
	"mkbas/internal/perf"
	"mkbas/internal/polcheck/monitor"
	"mkbas/internal/safety"
	"mkbas/internal/tenantapi/loadgen"
)

// A deliberately perturbed verdict, counter or tally must change its unit's
// digest, and the checker must count that unit as failed.
func TestPerturbedUnitCountsAsFailed(t *testing.T) {
	report := func() *attack.Report {
		return &attack.Report{
			Attempts: 40, Denials: 40, ControllerAlive: true,
			MonitorStats: &monitor.Stats{Observed: 9},
			Obs: &obs.Report{
				Counters: []obs.CounterSnap{
					{Name: "machine_traps_total", Value: 1000},
					{Name: "machine_context_switches_total", Value: 400},
				},
				EventTotals: []obs.EventTotal{{Kind: obs.EventIPCDenied, Mechanism: obs.MechACM, Denied: true, Count: 40}},
			},
		}
	}
	ref := caseDigest(report())
	perturb := map[string]func(r *attack.Report){
		"verdict":       func(r *attack.Report) { r.Violations = []safety.Violation{{Property: safety.PropAlarmHonesty}} },
		"machine count": func(r *attack.Report) { r.Obs.Counters[0].Value++ },
		"event total":   func(r *attack.Report) { r.Obs.EventTotals[0].Count-- },
		"mechanism":     func(r *attack.Report) { r.Obs.EventTotals[0].Mechanism = obs.MechCapability },
		"monitor":       func(r *attack.Report) { r.MonitorStats.Observed++ },
	}
	for name, fn := range perturb {
		r := report()
		fn(r)
		c := newChecker(map[string]string{"case-00": ref, "case-01": ref})
		c.check("case-00", caseDigest(report()))
		c.check("case-01", caseDigest(r))
		if c.attempted != 2 || c.failed != 1 {
			t.Errorf("%s perturbed: attempted %d failed %d, want 2 and 1", name, c.attempted, c.failed)
		}
	}

	// Free text and counters outside machine_* are not part of a digest:
	// reformatting them must not fail a unit.
	r := report()
	r.Notes = []string{"reworded note"}
	r.Obs.Counters = append(r.Obs.Counters, obs.CounterSnap{Name: "minix_ipc_send_total", Value: 7})
	if caseDigest(r) != ref {
		t.Error("a note or a non-machine counter changed the case digest")
	}

	room := building.RoomReport{Room: 3, Platform: "minix3-acm", RoomTemp: 21.99, ControllerAlive: true}
	board := &obs.Report{}
	hotter := room
	hotter.RoomTemp = 22.01
	if roomDigest(room, board) == roomDigest(hotter, board) {
		t.Error("a changed final room temperature kept the room digest")
	}
	shard := loadgen.ShardStats{Requests: 10, Outcomes: map[string]int64{"ok": 6, "forbidden": 4}}
	shifted := loadgen.ShardStats{Requests: 10, Outcomes: map[string]int64{"ok": 5, "forbidden": 5}}
	if shardDigest(shard) == shardDigest(shifted) {
		t.Error("a changed outcome tally kept the shard digest")
	}
}

// The recorded references cover every workload for every recorded seed, and
// any run seed maps onto a recorded one.
func TestReferencesCoverEverySeed(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs.Seeds) != referenceSeeds {
		t.Errorf("%d recorded seeds, want %d", len(refs.Seeds), referenceSeeds)
	}
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		if input := refs.input(seed); !slices.Contains(refs.Seeds, input) {
			t.Errorf("seed %d mapped to unrecorded input %d", seed, input)
		}
	}
	for _, w := range workloadList {
		for _, input := range refs.Seeds {
			if _, err := refs.units(w.name, input); err != nil {
				t.Error(err)
			}
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the metric names are checked
// against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// The metric names and units a run reports are exactly those BENCHMARK.json
// declares, untraced and traced.
func TestMetricNamesStable(t *testing.T) {
	spec := loadSpec(t)
	w, _ := workloadByName("tenant-api")
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	input := refs.input(1)
	check := func(kind string, got metricSet, want []struct{ Name, Unit string }) {
		t.Helper()
		wantUnits := map[string]string{}
		for _, m := range want {
			wantUnits[m.Name] = m.Unit
		}
		gotUnits := map[string]string{}
		for name, m := range got {
			gotUnits[name] = m.unit
		}
		if !maps.Equal(gotUnits, wantUnits) {
			t.Errorf("%s metrics %v, BENCHMARK.json declares %v", kind, gotUnits, wantUnits)
		}
	}
	plain, err := w.measure(refs, input, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	check("end-to-end", plain.metrics, spec.EndToEnd)
	traced, err := traced(w, refs, input, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	check("per-layer", traced.metrics, spec.PerLayer)
	if plain.failed != 0 || traced.failed != 0 {
		t.Errorf("digest mismatches at the recorded seed: %d untraced, %d traced", plain.failed, traced.failed)
	}
}

// The traced pass's layer counts and every unit digest repeat exactly from
// run to run and at 1 and 2 workers.
func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range workloadList {
		if testing.Short() && w.name == "verdict-matrix" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			var first *runStats
			for _, n := range []int{2, 1, 2} {
				st, err := w.run(params{input: 1, workers: n, prof: perf.New(perf.Options{Timeline: true})})
				if err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = st
					if len(st.counts) == 0 {
						t.Fatal("no layer counts")
					}
					continue
				}
				if !maps.Equal(st.counts, first.counts) {
					t.Errorf("%d workers: counts %v, first run %v", n, st.counts, first.counts)
				}
				if !maps.Equal(st.check.got, first.check.got) {
					t.Errorf("%d workers: unit digests differ from the first run", n)
				}
			}
		})
	}
}
