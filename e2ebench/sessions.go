package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/message"
	"loadbalance/internal/protocol"
	"loadbalance/internal/store"
	"loadbalance/internal/trace"
)

const (
	flatN  = 1000
	tcpN   = 2000
	tcpK   = 32 // shards of at most 63 members
	faultK = 4  // shards of 500 members: overflows the server-side inbox

	// faultTimeout bounds the oversized-shard attempt. A healthy 4-shard
	// session of this fleet needs about a second; the attempt stalls for
	// good on the inbox fault, so any bound well past a healthy session
	// only adds waiting.
	faultTimeout = 3 * time.Second

	// tcpRound is how many timed sessions precede each oversized-shard
	// attempt: 1 in tcpRound+1 attempted operations fails.
	tcpRound = 6
)

// session is one negotiation's outputs, as the checks need them.
type session struct {
	history   []protocol.RoundRecord
	finalBids map[string]float64
	awards    map[string]message.Award
	errs      int
	returned  time.Time
	// Transport counters.
	msgs, rejected, frames, wireBytes int
}

// sessionWorkload is a negotiation driver over one fixed scenario.
type sessionWorkload struct {
	n      int
	params func(s core.Scenario) protocol.Params
	run    func(s core.Scenario) (*session, error)
	tail   func(l *layers) *[]float64
	// perRound timed sessions make one round; extra, when set, closes
	// every round (the tcp_2k oversized-shard attempt) and reports whether
	// the attempt failed. Whole rounds keep the failed share of attempted
	// operations the same in every run.
	perRound int
	extra    func(rep *report, s core.Scenario) (bool, error)
	// finish runs once after the timed region with the first session.
	finish func(rep *report, s core.Scenario, first *session) error
}

func runFlat(cfg runConfig) (*report, error) {
	return runSessions(cfg, sessionWorkload{
		n:        flatN,
		perRound: 1,
		params:   func(s core.Scenario) protocol.Params { return s.Params },
		run: func(s core.Scenario) (*session, error) {
			res, err := core.Run(s)
			returned := time.Now()
			if err != nil {
				return nil, err
			}
			return &session{
				history:   res.History,
				finalBids: res.FinalBids,
				awards:    awardMap(res.Awards),
				errs:      len(res.AgentErrors),
				returned:  returned,
				msgs:      res.Bus.Sent,
				rejected:  res.Bus.Rejected,
			}, nil
		},
		tail: func(l *layers) *[]float64 { return &l.coreTail },
	})
}

func runTCP(cfg runConfig) (*report, error) {
	distributed := func(s core.Scenario, shards int) (*session, error) {
		res, err := cluster.RunDistributed(cluster.DistributedConfig{Scenario: s, Shards: shards})
		returned := time.Now()
		if err != nil {
			return nil, err
		}
		out := &session{
			history:   res.History,
			finalBids: res.FinalBids,
			awards:    res.MemberAwards,
			errs:      len(res.AgentErrors),
			returned:  returned,
			msgs:      res.ParentBus.Sent,
			rejected:  res.ParentBus.Rejected,
			frames:    int(res.RootWire.FramesIn + res.RootWire.FramesOut + res.MemberWire.FramesIn + res.MemberWire.FramesOut),
			wireBytes: int(res.RootWire.BytesIn + res.RootWire.BytesOut + res.MemberWire.BytesIn + res.MemberWire.BytesOut),
		}
		for _, b := range res.ShardBuses {
			out.msgs += b.Sent
			out.rejected += b.Rejected
		}
		return out, nil
	}
	rootParams := func(s core.Scenario) protocol.Params { return cluster.RootParams(s.Params) }
	req := deriveRequirements(tcpN, cfg.seed, paperBase)
	return runSessions(cfg, sessionWorkload{
		n:        tcpN,
		perRound: tcpRound,
		params:   rootParams,
		run:      func(s core.Scenario) (*session, error) { return distributed(s, tcpK) },
		tail:     func(l *layers) *[]float64 { return &l.clusterTail },
		extra: func(rep *report, s core.Scenario) (bool, error) {
			s.Timeout = faultTimeout
			res, err := distributed(s, faultK)
			if errors.Is(err, cluster.ErrTimeout) {
				return true, nil
			}
			if err != nil {
				return false, err
			}
			// Once the inbox fault is mended the attempt completes and is
			// checked like any other session.
			checkSession(rep, "4-shard session", res.history, rootParams(s), res.finalBids, res.awards, req)
			return false, nil
		},
		finish: func(rep *report, s core.Scenario, first *session) error {
			return checkTreeEquivalence(rep, s, first)
		},
	})
}

// checkTreeEquivalence negotiates the scenario once through the in-process
// concentrator tree and requires the TCP session's member awards to be
// identical. The tree's per-member awards are read back from the session
// record cluster.Run journals.
func checkTreeEquivalence(rep *report, s core.Scenario, first *session) error {
	dir, err := dataDir("tree-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	_, err = cluster.Run(cluster.Config{Scenario: s, Shards: tcpK, Journal: st})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("in-process tree reference: %w", err)
	}
	rec, err := store.ReadDir(dir)
	if err != nil {
		return err
	}
	var tree *store.SessionOutcome
	for _, r := range rec.Records {
		if r.Kind == store.KindSession {
			o, err := store.DecodeSession(r)
			if err != nil {
				return err
			}
			tree = &o
		}
	}
	if tree == nil {
		return errors.New("in-process tree reference journaled no session")
	}
	if len(tree.Awards) != len(first.awards) {
		rep.problemf("tree ≢ TCP: %d tree awards, %d TCP awards", len(tree.Awards), len(first.awards))
	}
	for name, ta := range tree.Awards {
		a, ok := first.awards[name]
		if !ok || a.CutDown != ta.CutDown || a.Reward != ta.Reward {
			rep.problemf("tree ≢ TCP: %s tree award %+v, TCP award %+v", name, ta, a)
		}
	}
	return nil
}

// dataDir makes a fresh directory for a run's scratch data under the build
// directory of the checkout the benchmark runs in.
func dataDir(prefix string) (string, error) {
	root := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

func runSessions(cfg runConfig, w sessionWorkload) (*report, error) {
	rep := &report{}
	var s core.Scenario
	setupS, err := timeSetups(setups, func() error {
		var err error
		s, err = core.SyntheticScenario(core.SyntheticConfig{N: w.n, Seed: cfg.seed})
		if err != nil {
			return err
		}
		_, err = w.run(s) // warm-up session, untimed
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	req := deriveRequirements(w.n, cfg.seed, paperBase)
	checkFleet(rep, s, req)
	params := w.params(s)

	var (
		samples          []opSample
		traced, untraced []float64
		lay              layers
		first            *session
		firstPrint       [32]byte
		kernelTables     []message.RewardTable
		mix              []message.Envelope
	)
	for clk := newRoundClock(cfg.seconds); clk.next(); {
		for i := 0; i < w.perRound; i++ {
			on := cfg.traced && len(samples)%2 == 1
			var tr *trace.Tracer
			if on {
				tr = trace.Enable("e2ebench", traceRing(w.n))
			}
			var out *session
			smp, err := measure(func() error {
				var err error
				out, err = w.run(s)
				return err
			})
			var recs []trace.Record
			var missed uint64
			if on {
				trace.Disable()
				recs, _, missed = tr.DrainSince(0)
			}
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.problemf("session %d: %v", len(samples), err)
				continue
			}
			samples = append(samples, smp)
			label := fmt.Sprintf("session %d", len(samples))
			fp := checkSession(rep, label, out.history, params, out.finalBids, out.awards, req)
			if out.errs > 0 {
				rep.problemf("%s: %d agent errors", label, out.errs)
			}
			if first == nil {
				first, firstPrint = out, fp
				if cfg.traced {
					kernelTables = announcedTables(s, out.history)
					if mix, err = sessionMix(s, out.history, out.finalBids, out.awards); err != nil {
						return nil, err
					}
				}
			} else if fp != firstPrint {
				rep.problemf("%s: awards differ from the first timed session's", label)
			}
			if on {
				tailTo := w.tail(&lay)
				lay.addSpans(recs, missed, out.returned.UnixMicro(), tailTo, 0)
				lay.msgs += float64(out.msgs)
				lay.rejected += float64(out.rejected)
				lay.frames += float64(out.frames)
				lay.wireBytes += float64(out.wireBytes)
				lay.agentErrors += float64(out.errs)
				traced = append(traced, ms(smp.wall))
			} else {
				untraced = append(untraced, ms(smp.wall))
			}
		}
		if w.extra != nil {
			rep.attempted++
			failed, err := w.extra(rep, s)
			if err != nil {
				return nil, err
			}
			if failed {
				rep.failed++
			}
		}
	}
	if first == nil {
		return nil, errors.New("no session completed")
	}
	if w.finish != nil {
		if err := w.finish(rep, s, first); err != nil {
			return nil, err
		}
	}
	if !cfg.traced {
		var walls []float64
		for _, smp := range samples {
			walls = append(walls, ms(smp.wall))
		}
		endToEnd(rep, setupS, samples, w.n, walls)
		return rep, nil
	}
	kernel, err := replayKernel(s.Customers, kernelTables, s.SessionID)
	if err != nil {
		return nil, fmt.Errorf("kernel replay: %w", err)
	}
	codec, err := replayCodec(mix)
	if err != nil {
		return nil, fmt.Errorf("codec replay: %w", err)
	}
	lay.report(rep, w.n, traced, untraced, kernel, codec, 0)
	return rep, nil
}
