package main

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"loadbalance/internal/cluster"
	"loadbalance/internal/message"
	"loadbalance/internal/telemetry"
	"loadbalance/internal/trace"
)

const (
	liveN      = 2000
	liveShards = 8
	liveJitter = 0.05

	// The spike schedule: cycle j spans ticks [1+40j, 40+40j] (tick 0 is the
	// untimed warm-up). In it, shard j mod 8 runs at ×1.5 demand for 20
	// ticks starting spikeAt ticks into the cycle, so every cycle holds one
	// rising and one falling edge and each edge renegotiates that shard once.
	cycleTicks  = 40
	spikeAt     = 10
	spikeTicks  = 20
	spikeFactor = 1.5
	// maxCycles caps a run (and the schedule every meter carries). Runs end
	// on time long before it.
	maxCycles = 128
	// edgeLatency is how many ticks after an edge its renegotiation may
	// fire: the detector needs two consecutive deviating ticks.
	edgeLatency = 4
)

// spikeSchedule returns the per-shard demand events of the whole run.
func spikeSchedule() map[int][]telemetry.Event {
	ev := make(map[int][]telemetry.Event, liveShards)
	for j := 0; j < maxCycles; j++ {
		start := 1 + cycleTicks*j + spikeAt
		shard := j % liveShards
		ev[shard] = append(ev[shard], telemetry.Event{StartTick: start, EndTick: start + spikeTicks - 1, Factor: spikeFactor})
	}
	return ev
}

// expectedEdge returns the shard whose edge the schedule places at or
// shortly before tick, or -1.
func expectedEdge(tick int) int {
	if tick < 1 {
		return -1
	}
	j, off := (tick-1)/cycleTicks, (tick-1)%cycleTicks
	if (off >= spikeAt && off < spikeAt+edgeLatency) || (off >= spikeAt+spikeTicks && off < spikeAt+spikeTicks+edgeLatency) {
		return j % liveShards
	}
	return -1
}

func liveConfig(seed int64) (telemetry.LiveConfig, error) {
	s, err := telemetry.ElasticFleetScenario(liveN, seed)
	if err != nil {
		return telemetry.LiveConfig{}, err
	}
	return telemetry.LiveConfig{
		Scenario:    s,
		Shards:      liveShards,
		Jitter:      liveJitter,
		Seed:        seed,
		ShardEvents: spikeSchedule(),
	}, nil
}

func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

func runLive(cfg runConfig) (*report, error) {
	rep := &report{}
	lc, err := liveConfig(cfg.seed)
	if err != nil {
		return nil, err
	}
	var (
		e   *telemetry.LiveEngine
		dir string
	)
	defer func() {
		if e != nil {
			e.Stop()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	setupS, err := timeSetups(setups, func() error {
		if e != nil {
			if err := e.Shutdown(); err != nil {
				return err
			}
			e = nil
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = dataDir("live-"); err != nil {
			return err
		}
		if lc, err = liveConfig(cfg.seed); err != nil {
			return err
		}
		if e, _, err = telemetry.OpenDurable(lc, telemetry.DurableConfig{Dir: dir}); err != nil {
			return err
		}
		_, err = e.Tick() // warm-up tick 0, untimed
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	req := deriveRequirements(liveN, cfg.seed, elasticBase)
	checkFleet(rep, lc.Scenario, req)

	var (
		samples          []opSample
		renegMs          []float64
		traced, untraced []float64
		lay              layers
		events           []telemetry.RenegotiateEvent
	)
	snap := e.Snapshot()
	readings, batches := snap.Readings, snap.Batches
	dir0 := dirBytes(dir)
	cycles := 0
	for clk := newRoundClock(cfg.seconds); cycles < maxCycles && clk.next(); cycles++ {
		on := cfg.traced && cycles%2 == 1
		var tr *trace.Tracer
		var cursor uint64
		if on {
			tr = trace.Enable("e2ebench", traceRing(liveN))
		}
		for i := 0; i < cycleTicks; i++ {
			var tick telemetry.TickReport
			smp, err := measure(func() error {
				var err error
				tick, err = e.Tick()
				return err
			})
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.problemf("tick: %v", err)
				continue
			}
			samples = append(samples, smp)
			if tick.Renegotiated != nil {
				events = append(events, *tick.Renegotiated)
				renegMs = append(renegMs, ms(smp.wall))
			}
			snap := e.Snapshot()
			if snap.Readings-readings != liveN {
				rep.problemf("tick %d: %d readings, want %d", tick.Tick, snap.Readings-readings, liveN)
			}
			if on {
				var recs []trace.Record
				var missed uint64
				recs, cursor, missed = tr.DrainSince(cursor)
				handled := lay.addSpans(recs, missed, 0, nil, tick.Tick)
				lay.readings += float64(snap.Readings - readings)
				lay.msgs += float64(snap.Batches-batches) + float64(handled)
				traced = append(traced, ms(smp.wall))
			} else {
				untraced = append(untraced, ms(smp.wall))
			}
			readings, batches = snap.Readings, snap.Batches
		}
		if on {
			trace.Disable()
		}
	}
	timedTicks := cycles * cycleTicks
	bytesPerTick := float64(dirBytes(dir)-dir0) / float64(timedTicks)
	checkSchedule(rep, events, cycles)
	checkLiveAwards(rep, e, lc, req)

	// A graceful shutdown and reopen of the data dir must recover the same
	// standing awards.
	before := standingAwards(e, lc)
	err = e.Shutdown()
	e = nil
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	e, info, err := telemetry.OpenDurable(lc, telemetry.DurableConfig{Dir: dir})
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if !info.Recovered || !info.CleanStart {
		rep.problemf("reopen recovered=%v clean=%v, want a clean recovery", info.Recovered, info.CleanStart)
	}
	for name, a := range standingAwards(e, lc) {
		if a != before[name] {
			rep.problemf("%s: award %+v after recovery, %+v before", name, a, before[name])
		}
	}
	e.Stop()
	e = nil

	if !cfg.traced {
		endToEnd(rep, setupS, samples, liveN, renegMs)
		return rep, nil
	}
	// The live loop exposes no session history; the kernel replays the
	// tables of the fleet's whole negotiation, the one OpenDurable runs.
	res, err := cluster.Run(cluster.Config{Scenario: lc.Scenario, Shards: liveShards})
	if err != nil {
		return nil, fmt.Errorf("kernel replay tables: %w", err)
	}
	kernel, err := replayKernel(lc.Scenario.Customers, announcedTables(lc.Scenario, res.History), lc.Scenario.SessionID)
	if err != nil {
		return nil, fmt.Errorf("kernel replay: %w", err)
	}
	mix, err := tickMix(lc, before)
	if err != nil {
		return nil, err
	}
	codec, err := replayCodec(mix)
	if err != nil {
		return nil, fmt.Errorf("codec replay: %w", err)
	}
	lay.report(rep, liveN, traced, untraced, kernel, codec, bytesPerTick)
	return rep, nil
}

// checkSchedule requires one renegotiation per spike edge, each on exactly
// the shard the schedule spiked there.
func checkSchedule(rep *report, events []telemetry.RenegotiateEvent, cycles int) {
	if want := 2 * cycles; len(events) != want {
		rep.problemf("%d renegotiations over %d cycles, want %d", len(events), cycles, want)
	}
	for _, ev := range events {
		want := expectedEdge(ev.Tick)
		if want < 0 || !reflect.DeepEqual(ev.Shards, []int{want}) {
			rep.problemf("tick %d renegotiated shards %v, schedule expects shard %d", ev.Tick, ev.Shards, want)
		}
	}
}

// checkLiveAwards requires every standing award to be individually
// rational: its reward meets the customer's derived requirement.
func checkLiveAwards(rep *report, e *telemetry.LiveEngine, lc telemetry.LiveConfig, req requirements) {
	for _, c := range lc.Scenario.Customers {
		a, ok := e.AwardOf(c.Name)
		if !ok {
			rep.problemf("%s has no standing award", c.Name)
			continue
		}
		if a.CutDown == 0 {
			continue
		}
		need, ok := req[c.Name][a.CutDown]
		if !ok || a.Reward < need-1e-9 || math.IsNaN(a.Reward) {
			rep.problemf("%s awarded %v for cut-down %v, requires %v", c.Name, a.Reward, a.CutDown, need)
		}
	}
}

// standingAwards reads every customer's standing award.
func standingAwards(e *telemetry.LiveEngine, lc telemetry.LiveConfig) map[string]telemetry.Award {
	out := make(map[string]telemetry.Award, len(lc.Scenario.Customers))
	for _, c := range lc.Scenario.Customers {
		out[c.Name], _ = e.AwardOf(c.Name)
	}
	return out
}

// tickMix builds one tick's metering traffic: the fleet's readings in
// MeterBatch envelopes of the engine's default 128 readings, each reading
// a customer's per-tick share (the engine's default 16 ticks per window)
// under its standing cut-down.
func tickMix(lc telemetry.LiveConfig, awards map[string]telemetry.Award) ([]message.Envelope, error) {
	const batch, ticksPerWindow = 128, 16
	var mix []message.Envelope
	cs := lc.Scenario.Customers
	for i := 0; i < len(cs); i += batch {
		b := message.MeterBatch{Tick: 1}
		for _, c := range cs[i:min(i+batch, len(cs))] {
			kwh := c.Predicted.KWhs() / ticksPerWindow * (1 - awards[c.Name].CutDown)
			b.Readings = append(b.Readings, message.MeterReading{Customer: c.Name, Tick: 1, KWh: kwh})
		}
		env, err := message.NewEnvelope("metering", "collector", lc.Scenario.SessionID, b)
		if err != nil {
			return nil, err
		}
		mix = append(mix, env)
	}
	return mix, nil
}
