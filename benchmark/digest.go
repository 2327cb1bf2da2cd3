package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"os"
	"sort"
	"strconv"
	"strings"

	"mkbas/internal/attack"
	"mkbas/internal/building"
	"mkbas/internal/obs"
	"mkbas/internal/tenantapi/loadgen"
)

// A unit digest covers simulated statistics only: verdicts, per-(kind,
// mechanism) event totals, the machine_*_total counters, safety-violation
// counts, final plant temperatures at fixed precision, head-end tallies,
// tenant outcome tallies and histogram counts. It never covers report bytes
// or free-text detail strings, so a change that only reformats events or
// reports keeps every digest.

// referenceFile is the embedded reference set, recorded with -record.
const referenceFile = "reference.json"

//go:embed reference.json
var referenceJSON []byte

// referenceSeeds is how many input seeds the references are recorded for:
// input seeds 1..referenceSeeds.
const referenceSeeds = 16

// anySeed is the key under which a workload whose digests are the same for
// every recorded seed is stored, once.
const anySeed = "any"

// references holds, per workload and input seed, the digest of every unit.
type references struct {
	// Seeds are the recorded input seeds. A run's --seed selects
	// Seeds[seed mod len(Seeds)], so any seed maps to inputs whose reference
	// output is known.
	Seeds     []int64                                 `json:"seeds"`
	Workloads map[string]map[string]map[string]string `json:"workloads"`
}

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	if len(r.Seeds) == 0 {
		return nil, fmt.Errorf("%s: no recorded seeds", referenceFile)
	}
	return &r, nil
}

// input maps a run seed to a recorded input seed.
func (r *references) input(seed int64) int64 {
	n := int64(len(r.Seeds))
	return r.Seeds[((seed%n)+n)%n]
}

// units returns the unit digests of a workload at a recorded input seed.
func (r *references) units(workload string, input int64) (map[string]string, error) {
	bySeed := r.Workloads[workload]
	units := bySeed[strconv.FormatInt(input, 10)]
	if units == nil {
		units = bySeed[anySeed]
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("no reference digests for workload %s, input seed %d", workload, input)
	}
	return units, nil
}

// checker compares unit digests against the references and tallies the
// outcome. With nil references (recording) it only collects.
type checker struct {
	refs      map[string]string
	got       map[string]string
	attempted int
	failed    int
}

func newChecker(refs map[string]string) *checker {
	return &checker{refs: refs, got: make(map[string]string)}
}

func (c *checker) check(unit, digest string) {
	c.got[unit] = digest
	if c.refs == nil {
		return
	}
	c.attempted++
	if c.refs[unit] != digest {
		c.failed++
	}
}

// digester accumulates canonical "key=value" lines into a 64-bit FNV-1a
// hash.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{fnv.New64a()} }

func (d *digester) put(key string, v any) { fmt.Fprintf(d.h, "%s=%v\n", key, v) }

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func (d *digester) temp(key string, celsius float64) {
	d.put(key, strconv.FormatFloat(celsius, 'f', 3, 64))
}

func (d *digester) eventTotals(ts []obs.EventTotal) {
	for _, t := range ts {
		d.put("event", fmt.Sprintf("%s/%s/%v", t.Kind, t.Mechanism, t.Denied)+"="+strconv.FormatInt(t.Count, 10))
	}
}

// machineCounters digests the engine's machine_*_total counters only: the
// other counters belong to layers whose instrumentation may legitimately
// change without changing the simulation.
func (d *digester) machineCounters(cs []obs.CounterSnap) {
	for _, c := range cs {
		if strings.HasPrefix(c.Name, "machine_") && strings.HasSuffix(c.Name, "_total") {
			d.put(c.Name, c.Value)
		}
	}
}

func (d *digester) outcomes(m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.put("outcome."+k, m[k])
	}
}

func (d *digester) histogramCounts(hs []obs.HistogramSnap) {
	for _, h := range hs {
		d.put("hist."+h.Name, h.Count)
		for _, b := range h.Buckets {
			d.put(fmt.Sprintf("hist.%s.le%d", h.Name, b.UpperNanos), b.Count)
		}
	}
}

// caseDigest digests one verdict-matrix case.
func caseDigest(r *attack.Report) string {
	d := newDigester()
	d.put("verdict", r.Verdict())
	d.put("attempts", r.Attempts)
	d.put("successes", r.Successes)
	d.put("denials", r.Denials)
	d.put("alive", r.ControllerAlive)
	d.put("restarts", r.Restarts)
	d.put("violations", len(r.Violations))
	byProperty := map[string]int64{}
	for _, v := range r.Violations {
		byProperty[string(v.Property)]++
	}
	d.outcomes(byProperty)
	d.put("violations_during_fault", r.ViolationsDuringFault)
	if r.MonitorStats != nil {
		d.put("monitor", *r.MonitorStats)
	}
	if r.Obs != nil {
		d.eventTotals(r.Obs.EventTotals)
		d.machineCounters(r.Obs.Counters)
	}
	return d.sum()
}

// roomDigest digests one building room: the head-end's view, the room's
// ground truth, and its board's event totals and machine counters.
func roomDigest(rr building.RoomReport, board *obs.Report) string {
	d := newDigester()
	d.put("platform", rr.Platform)
	d.put("secure", rr.Secure)
	bms := rr.BMS
	d.put("bms", fmt.Sprintf("%v/%d/%v/%v/%d/%v/%v/%v/%v/%d", bms.HaveTemp, bms.Missed, bms.Stale, bms.Unreachable,
		bms.UnreachableRounds, bms.Quarantined, bms.OutOfBand, bms.AlarmOn, bms.Flagged, bms.Writes))
	d.temp("bms.temp", bms.Temp)
	d.put("alive", rr.ControllerAlive)
	d.put("restarts", rr.Restarts)
	d.put("recovered", rr.Recovered)
	d.temp("room_temp", rr.RoomTemp)
	d.put("frames", fmt.Sprintf("%d/%d", rr.FramesAccepted, rr.FramesRejected))
	d.put("supervision", fmt.Sprintf("%d/%d/%v", rr.SupervisionLost, rr.SupervisionRestored, rr.Degraded))
	if rr.Monitor != nil {
		d.put("monitor", *rr.Monitor)
	}
	d.put("bus", fmt.Sprintf("%d/%d/%v", rr.BusDrifts, rr.BusRefused, rr.Demoted))
	d.eventTotals(board.EventTotals)
	d.machineCounters(board.Counters)
	return d.sum()
}

// buildingDigest digests the building-wide tallies: head-end polls and
// writes, the alarm, and the tenant tier's outcomes and histogram counts.
func buildingDigest(rep *building.Report) string {
	d := newDigester()
	d.put("rounds", rep.Rounds)
	d.temp("setpoint", rep.Setpoint)
	d.put("alarm", rep.Alarm)
	d.put("flagged", rep.Flagged)
	d.put("polls", fmt.Sprintf("%d/%d/%d", rep.PollsSent, rep.PollsAnswered, rep.PollsMissed))
	d.put("writes", rep.WritesSent)
	if rep.API != nil {
		d.put("api", fmt.Sprintf("%d/%d/%d", rep.API.Requests, rep.API.Served, rep.API.BuildingWrite))
		d.outcomes(rep.API.Outcomes)
	}
	d.histogramCounts(rep.Histograms)
	d.eventTotals(rep.EventTotals)
	d.machineCounters(rep.Counters)
	return d.sum()
}

// shardDigest digests one load-generator shard's tally.
func shardDigest(s loadgen.ShardStats) string {
	d := newDigester()
	d.put("requests", s.Requests)
	d.put("backend_writes", s.BackendWrites)
	d.outcomes(s.Outcomes)
	return d.sum()
}

// campaignDigest digests the merged campaign: outcome tallies, per-route
// request counters, histogram counts and denial totals.
func campaignDigest(rep *loadgen.Report) string {
	d := newDigester()
	d.put("requests", rep.Requests)
	d.put("served", rep.Served)
	d.put("backend_writes", rep.BackendWrites)
	d.outcomes(rep.Outcomes)
	for _, c := range rep.Counters {
		d.put(c.Name, c.Value)
	}
	d.histogramCounts(rep.Histograms)
	d.eventTotals(rep.EventTotals)
	return d.sum()
}

// recordReferences runs every workload once per input seed
// 1..referenceSeeds and writes the unit digests; a workload whose digests
// do not depend on the seed is written once. The run that records must not
// be timed or traced.
func recordReferences(path string) error {
	r := references{Workloads: map[string]map[string]map[string]string{}}
	for s := int64(1); s <= referenceSeeds; s++ {
		r.Seeds = append(r.Seeds, s)
	}
	for _, w := range workloadList {
		bySeed := map[string]map[string]string{}
		seedFree := true
		for _, s := range r.Seeds {
			units, err := w.digests(s)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			bySeed[strconv.FormatInt(s, 10)] = units
			seedFree = seedFree && maps.Equal(units, bySeed["1"])
			fmt.Fprintf(os.Stderr, "recorded %s seed %d: %d units\n", w.name, s, len(units))
		}
		if seedFree {
			bySeed = map[string]map[string]string{anySeed: bySeed["1"]}
		}
		r.Workloads[w.name] = bySeed
	}
	out, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
