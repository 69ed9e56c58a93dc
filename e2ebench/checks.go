package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"loadbalance/internal/core"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/verify"
)

// requirements maps each customer to its minimum acceptable reward per
// cut-down level, derived by the benchmark from the seed alone.
type requirements map[string]map[float64]float64

// Both generators scale a base requirement table by a per-customer factor
// 0.8 + 0.8·u, u drawn in customer order from math/rand seeded with the
// workload seed. The tables below restate the program's definitions
// (core.ScaledPaperPreferences, telemetry.ElasticFleetScenario) so the
// checks do not trust the generator they check.
var (
	paperBase   = map[float64]float64{0.1: 4, 0.2: 8, 0.3: 13, 0.4: 21}
	elasticBase = map[float64]float64{0.1: 4, 0.2: 9, 0.3: 15, 0.4: 22, 0.5: 30, 0.6: 39, 0.7: 49, 0.8: 60, 0.9: 72}
)

func deriveRequirements(n int, seed int64, base map[float64]float64) requirements {
	rng := rand.New(rand.NewSource(seed))
	req := make(requirements, n)
	for i := 0; i < n; i++ {
		f := 0.8 + 0.8*rng.Float64()
		t := make(map[float64]float64, len(base)+1)
		t[0] = 0
		for l, r := range base {
			t[l] = r * f
		}
		req[fmt.Sprintf("c%06d", i)] = t
	}
	return req
}

// checkFleet confirms the generated scenario carries the derived
// requirement tables, so the later checks speak of the inputs the program
// actually negotiated over.
func checkFleet(rep *report, s core.Scenario, req requirements) {
	if len(s.Customers) != len(req) {
		rep.problemf("scenario has %d customers, want %d", len(s.Customers), len(req))
		return
	}
	for _, c := range s.Customers {
		want, ok := req[c.Name]
		if !ok {
			rep.problemf("unexpected customer %q", c.Name)
			continue
		}
		for l, r := range want {
			if got := c.Prefs.Required[l]; math.Abs(got-r) > 1e-9 {
				rep.problemf("%s: required(%v) = %v, derived %v", c.Name, l, got, r)
			}
		}
	}
}

// tableReward looks a grid level up in an announced table.
func tableReward(t protocol.Table, level float64) (float64, bool) {
	for _, e := range t.Entries {
		if e.CutDown == level {
			return e.Reward, true
		}
	}
	return 0, false
}

// checkSession checks one negotiation's outputs: the history passes the
// protocol properties, every final bid is individually rational under the
// final table, and every award pays the final table's reward for its bid.
// It returns a fingerprint of the awards for the identical-awards check.
func checkSession(rep *report, label string, history []protocol.RoundRecord, params protocol.Params,
	finalBids map[string]float64, awards map[string]message.Award, req requirements) [32]byte {
	if vr := verify.CheckRewardTableTrace(history, params); !vr.OK() {
		rep.problemf("%s: %v", label, vr.Error())
	}
	if len(history) == 0 {
		rep.problemf("%s: no rounds negotiated", label)
		return [32]byte{}
	}
	final := history[len(history)-1].Table
	for name, bid := range finalBids {
		r, ok := req[name]
		if !ok {
			rep.problemf("%s: bid from unknown customer %q", label, name)
			continue
		}
		if bid == 0 {
			continue
		}
		offered, ok := tableReward(final, bid)
		if !ok {
			rep.problemf("%s: %s bid %v is not a level of the final table", label, name, bid)
			continue
		}
		need, ok := r[bid]
		if !ok || offered < need-1e-9 {
			rep.problemf("%s: %s bid %v for reward %v below its requirement %v", label, name, bid, offered, need)
		}
		if _, ok := awards[name]; !ok {
			rep.problemf("%s: %s bid %v but got no award", label, name, bid)
		}
	}
	names := make([]string, 0, len(awards))
	for name, a := range awards {
		names = append(names, name)
		if a.CutDown != finalBids[name] {
			rep.problemf("%s: %s awarded cut-down %v, final bid %v", label, name, a.CutDown, finalBids[name])
		}
		if want, ok := tableReward(final, a.CutDown); !ok || a.Reward != want {
			rep.problemf("%s: %s awarded %v for cut-down %v, final table pays %v", label, name, a.Reward, a.CutDown, want)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%s %v %v\n", n, awards[n].CutDown, awards[n].Reward)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// awardMap turns a flat result's award list into a map.
func awardMap(awards []protocol.CustomerAward) map[string]message.Award {
	out := make(map[string]message.Award, len(awards))
	for _, a := range awards {
		out[a.Customer] = a.Award
	}
	return out
}
