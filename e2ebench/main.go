// Command e2ebench is the end-to-end benchmark of the load-balancing
// negotiation engine. It drives the program's public entry points from one
// process, one operation at a time in a closed loop with a single caller:
//
//	flat_1k  core.Run over a 1000-customer synthetic fleet
//	tcp_2k   cluster.RunDistributed over a 2000-customer fleet, 32 shards, loopback TCP
//	live_2k  telemetry.OpenDurable + LiveEngine.Tick over a 2000-customer elastic fleet
//
// Usage:
//
//	e2ebench --workload flat_1k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer split read from the program's spans plus replays and counters
// taken around public calls. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Every output is
// checked against computations made apart from the program; a failed check
// sets "correct" to false and the exit code to 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// procStart stands in for process start: the first set-up is timed from
// here, so runtime and package initialisation are the only uncounted work.
var procStart = time.Now()

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metric
}

// problemf records a failed output check.
func (r *report) problemf(format string, args ...any) {
	if len(r.problems) < 50 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

// runConfig is the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
}

type runner func(cfg runConfig) (*report, error)

var workloads = map[string]runner{
	"flat_1k": runFlat,
	"tcp_2k":  runTCP,
	"live_2k": runLive,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: flat_1k, tcp_2k or live_2k")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed region in seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload flat_1k|tcp_2k|live_2k, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *traceMode == 1}
	rep, err := rn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: check failed: %s\n", cfg.workload, p)
	}
	for _, m := range rep.metrics {
		fmt.Printf("%-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("attempted %d, failed %d\n", rep.attempted, rep.failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, rep.attempted, rep.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}
