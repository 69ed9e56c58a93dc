package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/trace"
)

// The traced mode reads the program's own spans: handle.<kind> around every
// envelope an agent runtime handles (labelled with the agent's bus name),
// the Utility Agent's session.open / round.announce / award.commit, and the
// live loop's tick / tick.collect / tick.renegotiate / tick.journal. The
// benchmark adds no span inside the program; it enables the process tracer
// around one traced operation and drains the ring after it.

// layers accumulates the per-layer figures of the traced operations.
type layers struct {
	ops     int // traced operations
	spans   int
	dropped uint64

	caDecide, uaBid, ccRelay, ccAgg []float64 // µs per handled envelope
	caBusy, uaBusy, ccBusy          float64   // µs handling envelopes
	decisions, rounds, handled      int
	roundGap                        []float64 // ms between successive announcements
	coreTail, clusterTail           []float64 // ms from award.commit end to the driver's return

	collect, renegSelf, snapshot []float64 // ms
	journal                      []float64 // µs
	readings                     float64
	collectSec                   float64

	// Counters taken around the public calls, summed over traced operations.
	msgs, frames, wireBytes, rejected, agentErrors float64
}

// traceRing sizes the span ring for one operation of a fleet of n: every
// customer handles a few envelopes per round, so 64 per customer leaves
// room for tens of rounds before anything would wrap.
func traceRing(n int) int { return 64 * n }

// agentKind classifies a span's agent label by the program's naming: "ua"
// for the Utility Agent, "cc-NNN" for concentrators, "cNNNNNN" for
// customers.
func agentKind(a string) string {
	switch {
	case a == "ua":
		return "ua"
	case strings.HasPrefix(a, "cc-"):
		return "cc"
	case len(a) > 1 && a[0] == 'c' && a[1] >= '0' && a[1] <= '9':
		return "ca"
	}
	return ""
}

func end(r *trace.Record) int64 { return r.StartUs + r.DurUs }

// addSpans folds one traced operation's spans in and returns how many
// envelopes the operation's agents handled. returnedUs is the wall clock
// (µs since epoch) at which the driving call returned, for the award-drain
// and teardown tail that tailTo receives; 0 when the operation is a live
// tick, whose journal spans tick classifies.
func (l *layers) addSpans(recs []trace.Record, missed uint64, returnedUs int64, tailTo *[]float64, tick int) int {
	l.ops++
	l.spans += len(recs)
	l.dropped += missed
	handled := 0
	byID := make(map[string]*trace.Record, len(recs))
	announces := make(map[string][]int64)
	commitEnd := make(map[string]int64) // trace → award.commit end
	for i := range recs {
		r := &recs[i]
		byID[r.Span] = r
		if strings.HasPrefix(r.Name, "handle.") {
			handled++
			kind := r.Name[len("handle."):]
			us := float64(r.DurUs)
			switch agentKind(r.Agent) {
			case "ca":
				l.caBusy += us
				if kind == string(message.KindRewardTable) {
					l.caDecide = append(l.caDecide, us)
					l.decisions++
				}
			case "ua":
				l.uaBusy += us
				if kind == string(message.KindCutDownBid) {
					l.uaBid = append(l.uaBid, us)
				}
			case "cc":
				l.ccBusy += us
				switch kind {
				case string(message.KindRewardTable):
					l.ccRelay = append(l.ccRelay, us)
				case string(message.KindCutDownBid):
					l.ccAgg = append(l.ccAgg, us)
				}
			}
			continue
		}
		switch r.Name {
		case "round.announce":
			announces[r.Trace] = append(announces[r.Trace], r.StartUs)
			l.rounds++
		case "award.commit":
			commitEnd[r.Trace] = end(r)
		case "tick.collect":
			l.collect = append(l.collect, float64(r.DurUs)/1e3)
			l.collectSec += float64(r.DurUs) / 1e6
		case "tick.journal":
			// The engine snapshots at the end of every 32nd tick (the
			// default cadence), inside the tick's journal commit.
			if (tick+1)%32 == 0 {
				l.snapshot = append(l.snapshot, float64(r.DurUs)/1e3)
			} else {
				l.journal = append(l.journal, float64(r.DurUs))
			}
		}
	}
	for _, starts := range announces {
		sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
		for i := 1; i < len(starts); i++ {
			l.roundGap = append(l.roundGap, float64(starts[i]-starts[i-1])/1e3)
		}
	}
	if returnedUs > 0 {
		for _, ce := range commitEnd {
			*tailTo = append(*tailTo, float64(returnedUs-ce)/1e3)
		}
	}
	for i := range recs {
		r := &recs[i]
		if r.Name != "tick.renegotiate" {
			continue
		}
		if ce, ok := commitEnd[r.Trace]; ok {
			l.clusterTail = append(l.clusterTail, float64(end(r)-ce)/1e3)
		}
		l.renegSelf = append(l.renegSelf, float64(r.DurUs-covered(r, recs, byID))/1e3)
	}
	l.handled += handled
	return handled
}

// covered returns how much of parent's interval its descendant spans cover
// (µs), so parent's self time is its duration minus this.
func covered(parent *trace.Record, recs []trace.Record, byID map[string]*trace.Record) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for i := range recs {
		r := &recs[i]
		if r.Trace != parent.Trace || r == parent {
			continue
		}
		desc := false
		for p := r.Parent; p != ""; {
			if p == parent.Span {
				desc = true
				break
			}
			pr, ok := byID[p]
			if !ok {
				break
			}
			p = pr.Parent
		}
		if !desc {
			continue
		}
		a, b := max(r.StartUs, parent.StartUs), min(end(r), end(parent))
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// report appends the per-layer metrics. customers is the fleet size;
// traced and untraced hold the operation wall times of each kind.
func (l *layers) report(rep *report, customers int, traced, untraced []float64, kernel kernelReplay, codec codecReplay, bytesPerTick float64) {
	ops := float64(max(l.ops, 1))
	n := float64(customers)
	rep.add("customeragent.decide_us_p50", "us", median(l.caDecide))
	rep.add("customeragent.busy_ms_per_op", "ms", l.caBusy/1e3/ops)
	rep.add("customeragent.decisions_per_op", "count", float64(l.decisions)/ops)
	rep.add("customeragent.react_us_p50", "us", kernel.usP50)
	rep.add("customeragent.react_allocs", "count", kernel.allocs)
	rep.add("utilityagent.bid_us_p50", "us", median(l.uaBid))
	rep.add("utilityagent.busy_ms_per_op", "ms", l.uaBusy/1e3/ops)
	rep.add("utilityagent.round_ms_p50", "ms", median(l.roundGap))
	rep.add("utilityagent.rounds_per_op", "count", float64(l.rounds)/ops)
	rep.add("cluster.relay_us_p50", "us", median(l.ccRelay))
	rep.add("cluster.aggregate_us_p50", "us", median(l.ccAgg))
	rep.add("cluster.busy_ms_per_op", "ms", l.ccBusy/1e3/ops)
	rep.add("cluster.tail_ms_p50", "ms", median(l.clusterTail))
	rep.add("core.tail_ms_p50", "ms", median(l.coreTail))
	rep.add("message.encode_ns_p50", "ns", codec.encodeNs)
	rep.add("message.decode_ns_p50", "ns", codec.decodeNs)
	rep.add("message.bytes_per_customer", "B", l.wireBytes/ops/n)
	rep.add("bus.msgs_per_customer", "count", l.msgs/ops/n)
	rep.add("bus.frames_per_customer", "count", l.frames/ops/n)
	rep.add("bus.rejected_per_op", "count", l.rejected/ops)
	rep.add("agent.handled_per_op", "count", float64(l.handled)/ops)
	rep.add("agent.errors_per_op", "count", l.agentErrors/ops)
	rep.add("telemetry.collect_ms_p50", "ms", median(l.collect))
	readingsPerS := 0.0
	if l.collectSec > 0 {
		readingsPerS = l.readings / l.collectSec
	}
	rep.add("telemetry.readings_per_s", "1/s", readingsPerS)
	rep.add("telemetry.reneg_self_ms_p50", "ms", median(l.renegSelf))
	rep.add("store.journal_us_p50", "us", median(l.journal))
	rep.add("store.snapshot_ms_p50", "ms", median(l.snapshot))
	rep.add("store.bytes_per_tick", "B", bytesPerTick)
	rep.add("trace.spans_per_op", "count", float64(l.spans)/ops)
	rep.add("trace.dropped", "count", float64(l.dropped))
	overhead := 0.0
	if u := median(untraced); u > 0 {
		overhead = (median(traced)/u - 1) * 100
	}
	rep.add("trace.overhead_pct", "%", overhead)
}

// kernelReplay is the decision kernel timed from outside the program.
type kernelReplay struct {
	usP50, allocs float64
}

// replayKernel feeds the announced tables, in order, to a fresh
// customeragent.Agent per customer through React — the transport-free
// entry point the runtimes call — and times every call.
func replayKernel(customers []core.CustomerSpec, tables []message.RewardTable, session string) (kernelReplay, error) {
	envs := make([]message.Envelope, len(tables))
	for i, t := range tables {
		env, err := message.NewEnvelope("ua", "", session, t)
		if err != nil {
			return kernelReplay{}, err
		}
		envs[i] = env
	}
	agents := make([]*customeragent.Agent, len(customers))
	for i, c := range customers {
		a, err := customeragent.New(c.Name, c.Prefs, c.Strategy)
		if err != nil {
			return kernelReplay{}, err
		}
		agents[i] = a
	}
	us := make([]float64, 0, len(agents)*len(envs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, a := range agents {
		for _, env := range envs {
			t0 := time.Now()
			_, _, err := a.React(env)
			d := time.Since(t0)
			if err != nil {
				return kernelReplay{}, err
			}
			us = append(us, float64(d.Nanoseconds())/1e3)
		}
	}
	runtime.ReadMemStats(&m1)
	calls := float64(max(len(us), 1))
	return kernelReplay{usP50: median(us), allocs: float64(m1.Mallocs-m0.Mallocs) / calls}, nil
}

// codecReplay is the binary envelope codec timed from outside the program.
type codecReplay struct {
	encodeNs, decodeNs float64
}

// replayCodec runs an operation's envelope mix through
// Envelope.AppendBinary and message.UnmarshalBinary, timing chunks of
// envelopes (one envelope is too short for the clock).
func replayCodec(mix []message.Envelope) (codecReplay, error) {
	const chunk, reps = 64, 5
	frames := make([][]byte, len(mix))
	for i, env := range mix {
		frames[i] = env.AppendBinary(nil)
	}
	var enc, dec []float64
	buf := make([]byte, 0, 1<<12)
	for r := 0; r < reps; r++ {
		for i := 0; i < len(mix); i += chunk {
			j := min(i+chunk, len(mix))
			t0 := time.Now()
			for k := i; k < j; k++ {
				buf = mix[k].AppendBinary(buf[:0])
			}
			enc = append(enc, float64(time.Since(t0).Nanoseconds())/float64(j-i))
		}
		for i := 0; i < len(frames); i += chunk {
			j := min(i+chunk, len(frames))
			t0 := time.Now()
			for k := i; k < j; k++ {
				if _, err := message.UnmarshalBinary(frames[k]); err != nil {
					return codecReplay{}, err
				}
			}
			dec = append(dec, float64(time.Since(t0).Nanoseconds())/float64(j-i))
		}
	}
	return codecReplay{encodeNs: median(enc), decodeNs: median(dec)}, nil
}

// sessionMix rebuilds the envelopes one session sends to and from its
// customers: per round a reward table and a cut-down bid per customer,
// then the awards and a session end per customer.
func sessionMix(s core.Scenario, history []protocol.RoundRecord, finalBids map[string]float64, awards map[string]message.Award) ([]message.Envelope, error) {
	var mix []message.Envelope
	add := func(from, to string, p message.Payload) error {
		env, err := message.NewEnvelope(from, to, s.SessionID, p)
		if err == nil {
			mix = append(mix, env)
		}
		return err
	}
	for _, rec := range history {
		table := rec.Table.Message(s.Window, rec.Round)
		for _, c := range s.Customers {
			bid, ok := rec.Bids[c.Name]
			if !ok {
				bid = finalBids[c.Name]
			}
			if err := add("ua", c.Name, table); err != nil {
				return nil, err
			}
			if err := add(c.Name, "ua", message.CutDownBid{Round: rec.Round, CutDown: bid}); err != nil {
				return nil, err
			}
		}
	}
	last := history[len(history)-1].Round
	for _, c := range s.Customers {
		if a, ok := awards[c.Name]; ok {
			if err := add("ua", c.Name, a); err != nil {
				return nil, err
			}
		}
		if err := add("ua", c.Name, message.SessionEnd{Round: last, Reason: "converged"}); err != nil {
			return nil, err
		}
	}
	return mix, nil
}

// announcedTables converts a session's history to the tables it announced.
func announcedTables(s core.Scenario, history []protocol.RoundRecord) []message.RewardTable {
	out := make([]message.RewardTable, len(history))
	for i, rec := range history {
		out[i] = rec.Table.Message(s.Window, rec.Round)
	}
	return out
}
