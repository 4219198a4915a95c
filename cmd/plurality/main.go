// Command plurality runs a single plurality-consensus process and prints
// its trajectory and outcome.
//
// Examples:
//
//	plurality -n 100000 -k 8 -bias auto
//	plurality -rule median -n 100000 -k 32 -bias 2000 -print-rounds
//	plurality -n 1000000 -k 8 -bias auto -trace run-trace.jsonl
//	plurality -rule hplurality:9 -engine sampled -n 50000 -k 16 -bias auto
//	plurality -rule undecided -n 100000 -k 8 -bias 20000
//	plurality -engine graph -graph torus -n 10000 -k 4 -bias 2000
//	plurality -engine graph -graph torus:3 -graph-mode implicit -n 1000000000 -k 3 -bias auto
//	plurality -engine graph -graph smallworld:2:0.1 -graph-mode mmap -graph-file /data/sw.csr -n 100000000 -k 3 -bias auto
//	plurality -adversary strongest:200 -n 200000 -k 4 -bias auto
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"plurality/internal/adversary"
	"plurality/internal/colorcfg"
	"plurality/internal/core"
	"plurality/internal/obs"
	"plurality/internal/rng"
	"plurality/internal/spec"
	"plurality/internal/topo"
)

func main() {
	var (
		ruleName    = flag.String("rule", "3majority", "dynamics: 3majority | 3majority-utie | hplurality:H | median | polling | 2choices | 2choices-keepown | undecided")
		engName     = flag.String("engine", "auto", "engine: auto | multinomial | sampled | graph | population")
		graphName   = flag.String("graph", "complete", "topology for -engine graph (internal/topo registry spec): complete | cycle | star | torus[:DIMS] | hypercube | regular:D | gnp:P | smallworld:K:BETA | ba:M | sbm:B:PIN:POUT | barbell:D")
		graphMode   = flag.String("graph-mode", "auto", "topology backend for -engine graph: auto | implicit (zero materialization) | csr (force in-RAM) | mmap (serve from -graph-file, building it first if absent)")
		graphFile   = flag.String("graph-file", "", "CSR file for -graph-mode mmap (created atomically when missing)")
		n           = flag.Int64("n", 100_000, "number of agents")
		k           = flag.Int("k", 8, "number of colors")
		biasFlag    = flag.String("bias", "auto", "initial additive bias (integer) or 'auto' for the Corollary 1 threshold")
		seed        = flag.Uint64("seed", 1, "random seed")
		maxRounds   = flag.Int("max-rounds", 1_000_000, "round budget")
		advName     = flag.String("adversary", "none", "adversary: none | strongest:F | spread:F | random:F | boost:F")
		workers     = flag.Int("workers", 4, "worker goroutines for the sampled/graph engines")
		printRounds = flag.Bool("print-rounds", false, "print the configuration every round")
		traceFile   = flag.String("trace", "", "write a JSONL telemetry trace (per-round wall time, convergence stats, memory samples; cmd/tracereport renders it) to this file")
		mPlur       = flag.Int64("m-plurality", -1, "stop at M-plurality consensus instead of full consensus")
	)
	flag.Parse()

	if err := run(*ruleName, *engName, *graphName, *graphMode, *graphFile, *n, *k, *biasFlag, *seed,
		*maxRounds, *advName, *workers, *printRounds, *traceFile, *mPlur); err != nil {
		fmt.Fprintln(os.Stderr, "plurality:", err)
		os.Exit(1)
	}
}

func run(ruleName, engName, graphName, graphMode, graphFile string, n int64, k int,
	biasFlag string, seed uint64, maxRounds int, advName string, workers int,
	printRounds bool, traceFile string, mPlur int64) error {

	if n < 1 {
		return fmt.Errorf("-n %d: need at least one agent", n)
	}
	if k < 1 {
		return fmt.Errorf("-k %d: need at least one color", k)
	}
	if maxRounds < 1 {
		return fmt.Errorf("-max-rounds %d: need at least one round", maxRounds)
	}
	bias, err := spec.ParseBias(biasFlag, n, k)
	if err != nil {
		return err
	}
	rs, err := spec.Spec{Rule: ruleName, Engine: engName, Graph: graphName, N: n, K: k, Bias: bias}.Resolve()
	if err != nil {
		return err
	}

	r := rng.New(seed)
	var g topo.NeighborSource
	engSeed := seed ^ 0xdead
	if rs.Engine == "graph" {
		// The backend mode picks the representation (implicit / in-RAM
		// CSR / mmap); every mode yields the same seeded run.
		mode, err := topo.ParseMode(graphMode)
		if err != nil {
			return err
		}
		if mode == topo.ModeMmap && graphFile == "" {
			return errors.New("-graph-mode mmap needs -graph-file")
		}
		if g, err = rs.BuildSource(r, topo.BuildOpts{Mode: mode, Path: graphFile}); err != nil {
			return err
		}
		engSeed = seed ^ 0xbeef
	} else if graphName != "complete" || graphMode != "auto" || graphFile != "" {
		return errors.New("-graph, -graph-mode and -graph-file apply only to -engine graph")
	}
	eng := rs.NewEngine(g, workers, engSeed, r)

	adv, err := parseAdversary(advName)
	if err != nil {
		return err
	}

	stop := core.WhenConsensusOf(n)
	if mPlur >= 0 {
		stop = core.WhenMPlurality(n, mPlur)
	}

	opts := core.Options{
		MaxRounds: maxRounds,
		Rand:      r,
		Adversary: adv,
		Stop:      stop,
	}
	var telemetry *obs.Recorder
	if traceFile != "" {
		telemetry = &obs.Recorder{}
	}
	if printRounds || telemetry != nil {
		opts.Observer = obs.ObserverFunc(func(round int, agents, wallNs int64, c colorcfg.Config) {
			if telemetry != nil {
				telemetry.ObserveRound(round, agents, wallNs, c)
			}
			if printRounds {
				first, second := c.TopTwo()
				fmt.Printf("round %5d  top=%d  c1=%d  c2=%d  bias=%d  support=%d\n",
					round, c.Plurality(), first, second, c.Bias(), c.Support())
			}
		})
	}

	fmt.Printf("engine: %s\n", eng.Name())
	fmt.Printf("start:  n=%d k=%d bias=%d (cor1 threshold: %d)\n",
		n, k, bias, core.Corollary1Bias(n, k, 1.0))
	res := core.Run(eng, opts)

	fmt.Printf("rounds: %d (stopped=%v)\n", res.Rounds, res.Stopped)
	fmt.Printf("winner: color %d (initial plurality %d, won=%v)\n",
		res.Winner, res.InitialPlurality, res.WonInitialPlurality)
	first, _ := res.Final.TopTwo()
	fmt.Printf("final:  c_max=%d/%d minority-mass=%d\n", first, n, n-first)
	lambda := core.Lambda(n, k)
	fmt.Printf("theory: λ=%.3g, predicted O(λ·ln n)=%.0f rounds\n",
		lambda, core.UpperBoundRounds(n, lambda, 1))
	if telemetry != nil {
		f, err := os.Create(traceFile)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		werr := telemetry.WriteTrace(f, obs.Header{
			Engine: eng.Name(), Rule: ruleName, N: n, K: k, Seed: seed,
		})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write trace: %w", werr)
		}
		sum := telemetry.Summarize()
		fmt.Printf("trace:  %d rounds (%d retained) written to %s, %.1f ns/agent\n",
			sum.Rounds, sum.Retained, traceFile, sum.NsPerAgent)
	}
	return nil
}

func parseAdversary(s string) (adversary.Adversary, error) {
	if s == "none" {
		return adversary.None{}, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("adversary %q needs a budget, e.g. strongest:100", s)
	}
	f, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || f < 0 {
		return nil, fmt.Errorf("bad adversary budget in %q", s)
	}
	switch parts[0] {
	case "strongest":
		return adversary.Strongest{F: f}, nil
	case "spread":
		return adversary.Spread{F: f}, nil
	case "random":
		return adversary.Random{F: f}, nil
	case "boost":
		return adversary.Boost{F: f}, nil
	}
	return nil, fmt.Errorf("unknown adversary %q", parts[0])
}
