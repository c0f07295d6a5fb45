// Command nlbench is the NewsLink end-to-end benchmark. It generates a
// knowledge graph, a news corpus and a workload's requests from one seed,
// sets the program up, drives the workload for a fixed window, checks every
// reply, and prints every metric by name with its unit. With -trace 1 the
// same run also composes sampled requests from the layers' public calls,
// keeps their spans, and reports per-layer metrics instead.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash nlbench/run.sh --workload partial-query --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result object; the full record
// (host, parameters, every metric, findings) and, for traced runs, the
// span file are written under .bench_out/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// workload is one traffic mix; see README.md for why each exists.
type workload struct {
	name    string
	http    bool // served through internal/server
	cluster bool // served through a cluster router over two shard workers
	ingest  bool // WAL + ingest queue, and an open-loop writer
	mix     bool // 70% search, 20% related, 10% explain (else search only)
	partial bool // in-process partial-query sentences
	clients int  // closed-loop clients
}

var workloads = []*workload{
	{name: "partial-query", partial: true, clients: 1},
	{name: "ingest-serve", http: true, ingest: true, mix: true, clients: 1},
	{name: "cluster-search", cluster: true, clients: 1},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

const (
	// ingestRate is the open-loop writer's offered rate in documents per
	// second, about half of what one writer sustains on a 2-CPU host (see
	// README.md).
	ingestRate = 150
	// warmup of load precedes the measured window, so caches fill and the
	// first-request costs are not measured.
	warmup = 2 * time.Second
	// setupReps is how many times a run sets the system up; setup_s is
	// the median, and the last set-up serves the load.
	setupReps = 3
	// outDir receives the full record and span files, relative to the
	// working directory (the repository root).
	outDir = ".bench_out"
)

// config is one benchmark invocation.
type config struct {
	w         *workload
	seed      int64
	seconds   int
	warmup    time.Duration
	trace     bool
	sizes     sizes
	setupReps int
	outDir    string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: partial-query, ingest-serve or cluster-search")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 15, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: compose sampled requests, write spans, report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, warmup: warmup, trace: *trace == 1,
		sizes: fullSizes(*seconds), setupReps: setupReps, outDir: outDir}
	rec, err := runBenchmark(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "nlbench:", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "nlbench:", err)
		return 1
	}
	full, _ := json.Marshal(rec) // its Result marshalled above; the rest is plain data
	fmt.Fprintf(stdout, "%s\n%s\n", full, line)
	if !rec.Result.Correct {
		fmt.Fprintf(stderr, "nlbench: %d of %d operations failed or failed a check: %s\n",
			rec.Result.Failed, rec.Result.Attempted, strings.Join(rec.Errors, "; "))
		return 1
	}
	return 0
}
