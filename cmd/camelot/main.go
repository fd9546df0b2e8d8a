// Command camelot runs Camelot computations from the command line: pick a
// problem subcommand, a workload size, a node count, and optionally a
// byzantine adversary, and it prepares, error-corrects, and verifies the
// proof, printing the framework report.
//
// Usage:
//
//	camelot cliques   -n 10 -k 6 -nodes 8 -faults 200 -lie 2
//	camelot triangles -n 48 -p 0.2 -nodes 4
//	camelot chromatic -n 10 -p 0.4
//	camelot tutte     -n 6 -edges 8
//	camelot cnfsat    -vars 12 -clauses 20
//	camelot permanent -n 10
//	camelot hamilton  -n 9 -p 0.5
//	camelot setcover  -n 10 -sets 30 -t 4
//	camelot ov        -n 128 -t 16
//	camelot conv3sum  -n 64 -bits 10
//	camelot csp       -n 12 -sigma 2 -m 8
//
// The jobs subcommand runs a whole manifest of problems as concurrent
// jobs on one long-lived cluster (see jobs.go for the manifest format):
//
//	camelot jobs -manifest workload.txt -nodes 4
//
// The serve subcommand exposes the cluster as a multi-tenant HTTP proof
// service with a content-addressed proof cache, per-tenant quotas and
// priorities, and bounded admission (see serve.go and ARCHITECTURE.md
// "Proof service"):
//
//	camelot serve -addr 127.0.0.1:8080 -nodes 4 -faults 2 -tenants alice=8:3,bob=2:1
//
// Every subcommand (jobs included) also takes transport fault-simulation
// flags: -shards splits the broadcast bus into per-shard buses with a
// cross-shard relay, -dropnodes/-droprate/-duprate/-delayrate/-maxdelay
// wrap the transport in a seeded lossy network, and -erasures/-grace
// opt the run into the erasure-tolerant quorum gather that survives the
// losses. -repair N allows up to N self-healing gather rounds when the
// losses exceed even the erasure budget — surviving nodes recompute the
// missing ranges and the decode is retried:
//
//	camelot triangles -n 48 -nodes 8 -faults 6 -shards 3 -dropnodes 2 -erasures 2
//	camelot triangles -n 48 -nodes 8 -faults 1 -dropnodes 2,5 -erasures 2 -repair 1
//
// The coordinate/node pair runs one workload across real OS processes:
// a coordinator serves point-range assignments over the control
// protocol and worker daemons evaluate them (see remote.go and
// ARCHITECTURE.md "Multi-process deployment"):
//
//	camelot coordinate -spec "triangles n=24 p=0.3 seed=7" -listen 127.0.0.1:9000 -workers 2 -secret s
//	camelot node -join 127.0.0.1:9000 -secret s
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"strconv"
	"strings"
	"time"

	"camelot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "camelot: %v\n", err)
		os.Exit(1)
	}
}

// commonFlags holds the framework options shared by every subcommand.
type commonFlags struct {
	nodes, faults, trials int
	parallelism           int
	seed                  int64
	lie, silence, equiv   string

	// Transport fault simulation (sharded/lossy networks).
	shards                       int
	dropNodes                    string
	dropRate, dupRate, delayRate float64
	maxDelay                     time.Duration
	erasures                     int
	grace                        time.Duration
	repair                       int
}

func (cf *commonFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&cf.nodes, "nodes", 4, "number of compute nodes K")
	fs.IntVar(&cf.faults, "faults", 0, "fault tolerance f (codeword length e = d+1+2f)")
	fs.IntVar(&cf.trials, "trials", 2, "verification trials")
	fs.IntVar(&cf.parallelism, "parallelism", 0, "worker pool size driving the K nodes (0 = GOMAXPROCS)")
	fs.Int64Var(&cf.seed, "seed", 1, "randomness seed")
	fs.StringVar(&cf.lie, "lie", "", "comma-separated node ids that broadcast garbage")
	fs.StringVar(&cf.silence, "silence", "", "comma-separated node ids that crash")
	fs.StringVar(&cf.equiv, "equivocate", "", "comma-separated node ids that equivocate")
	fs.IntVar(&cf.shards, "shards", 0, "partition nodes into this many per-shard buses with a cross-shard relay (0 = one broadcast bus)")
	fs.StringVar(&cf.dropNodes, "dropnodes", "", "comma-separated node ids whose broadcasts the network always loses")
	fs.Float64Var(&cf.dropRate, "droprate", 0, "probability a node's broadcast is dropped")
	fs.Float64Var(&cf.dupRate, "duprate", 0, "probability a broadcast is delivered twice")
	fs.Float64Var(&cf.delayRate, "delayrate", 0, "probability a broadcast is delayed")
	fs.DurationVar(&cf.maxDelay, "maxdelay", 20*time.Millisecond, "upper bound on injected delivery delay")
	fs.IntVar(&cf.erasures, "erasures", 0, "tolerate losing up to this many node broadcasts (decoded as erasures)")
	fs.DurationVar(&cf.grace, "grace", 0, "erasure-tolerant gather grace timer (0 = framework default)")
	fs.IntVar(&cf.repair, "repair", 0, "self-healing gather: retry decode failures with up to this many repair rounds (needs -erasures)")
}

// validate applies every cross-flag rule up front, so a contradictory
// invocation dies with one friendly line instead of a mid-run hang or a
// deep framework error. splitOptions calls it first; subcommands with
// extra flags (coordinate) layer their own checks on top.
func (cf *commonFlags) validate() error {
	if cf.nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1, got %d", cf.nodes)
	}
	if cf.faults < 0 {
		return fmt.Errorf("-faults must be >= 0, got %d", cf.faults)
	}
	if cf.trials < 0 {
		return fmt.Errorf("-trials must be >= 0, got %d", cf.trials)
	}
	if cf.shards < 0 || cf.erasures < 0 || cf.repair < 0 {
		return fmt.Errorf("-shards/-erasures/-repair must be >= 0")
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"-droprate", cf.dropRate}, {"-duprate", cf.dupRate}, {"-delayrate", cf.delayRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("%s is a probability: want 0..1, got %g", r.name, r.v)
		}
	}
	if (cf.dropNodes != "" || cf.dropRate > 0 || cf.dupRate > 0) && cf.erasures <= 0 {
		return fmt.Errorf("-dropnodes/-droprate/-duprate need -erasures N: a strict gather waits forever for lost messages")
	}
	if cf.repair > 0 && cf.erasures <= 0 {
		return fmt.Errorf("-repair needs -erasures N: a strict gather has no missing nodes to repair")
	}
	if cf.grace > 0 && cf.erasures <= 0 {
		return fmt.Errorf("-grace needs -erasures N: only the erasure-tolerant gather has a grace timer")
	}
	return nil
}

// splitOptions resolves the flags into the session API's two scopes:
// cluster-scoped (nodes, pool width) and run-scoped (faults, seed,
// trials, adversary). The jobs subcommand feeds them to NewCluster and
// Submit respectively; the one-shot subcommands merge them back.
func (cf *commonFlags) splitOptions() ([]camelot.RunOption, []camelot.ClusterOption, error) {
	if err := cf.validate(); err != nil {
		return nil, nil, err
	}
	cluster := []camelot.ClusterOption{
		camelot.WithNodes(cf.nodes),
		camelot.WithMaxParallelism(cf.parallelism),
	}
	run := []camelot.RunOption{
		camelot.WithFaultTolerance(cf.faults),
		camelot.WithSeed(cf.seed),
		camelot.WithVerifyTrials(cf.trials),
	}
	parse := func(s string) ([]int, error) {
		if s == "" {
			return nil, nil
		}
		parts := strings.Split(s, ",")
		ids := make([]int, 0, len(parts))
		for _, p := range parts {
			id, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("bad node id %q", p)
			}
			ids = append(ids, id)
		}
		return ids, nil
	}
	if cf.shards > 0 {
		cluster = append(cluster, camelot.WithShardedTransport(cf.shards))
	}
	dropIDs, err := parse(cf.dropNodes)
	if err != nil {
		return nil, nil, err
	}
	if len(dropIDs) > 0 || cf.dropRate > 0 || cf.dupRate > 0 || cf.delayRate > 0 {
		// The lossy wrapper layers over whatever came before it — the
		// sharded network when -shards is set, the plain bus otherwise.
		cluster = append(cluster, camelot.WithLossyTransport(camelot.LossyConfig{
			Seed:      cf.seed,
			DropNodes: dropIDs,
			DropRate:  cf.dropRate,
			DupRate:   cf.dupRate,
			DelayRate: cf.delayRate,
			MaxDelay:  cf.maxDelay,
		}))
	}
	if cf.erasures > 0 {
		run = append(run, camelot.WithMaxErasures(cf.erasures))
	}
	if cf.grace > 0 {
		run = append(run, camelot.WithGatherGrace(cf.grace))
	}
	if cf.repair > 0 {
		run = append(run, camelot.WithMaxRepairRounds(cf.repair))
	}
	if ids, err := parse(cf.lie); err != nil {
		return nil, nil, err
	} else if len(ids) > 0 {
		run = append(run, camelot.WithAdversary(camelot.LyingNodes(uint64(cf.seed), ids...)))
	}
	if ids, err := parse(cf.silence); err != nil {
		return nil, nil, err
	} else if len(ids) > 0 {
		run = append(run, camelot.WithAdversary(camelot.SilentNodes(ids...)))
	}
	if ids, err := parse(cf.equiv); err != nil {
		return nil, nil, err
	} else if len(ids) > 0 {
		run = append(run, camelot.WithAdversary(camelot.EquivocatingNodes(uint64(cf.seed), ids...)))
	}
	return run, cluster, nil
}

func (cf *commonFlags) options() ([]camelot.Option, error) {
	run, cluster, err := cf.splitOptions()
	if err != nil {
		return nil, err
	}
	opts := make([]camelot.Option, 0, len(run)+len(cluster))
	for _, o := range cluster {
		opts = append(opts, o)
	}
	for _, o := range run {
		opts = append(opts, o)
	}
	return opts, nil
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: camelot <cliques|triangles|chromatic|tutte|cnfsat|permanent|hamilton|setcover|ov|conv3sum|csp|jobs|serve|coordinate|node> [flags]")
	}
	ctx := context.Background()
	sub, rest := args[0], args[1:]
	switch sub {
	case "jobs":
		return runJobs(rest)
	case "serve":
		return runServe(rest)
	case "coordinate":
		return runCoordinate(ctx, rest)
	case "node":
		return runNode(ctx, rest)
	}
	fs := flag.NewFlagSet(sub, flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)

	switch sub {
	case "cliques":
		n := fs.Int("n", 9, "vertices")
		k := fs.Int("k", 6, "clique size (multiple of 6)")
		p := fs.Float64("p", 0.6, "edge probability")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		g := camelot.RandomGraph(*n, *p, cf.seed)
		count, rep, err := camelot.CountCliques(ctx, g, *k, opts...)
		return report(fmt.Sprintf("%d-cliques", *k), count, rep, err)

	case "triangles":
		n := fs.Int("n", 48, "vertices")
		p := fs.Float64("p", 0.2, "edge probability")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		g := camelot.RandomGraph(*n, *p, cf.seed)
		count, rep, err := camelot.CountTriangles(ctx, g, opts...)
		return report("triangles", count, rep, err)

	case "chromatic":
		n := fs.Int("n", 10, "vertices")
		p := fs.Float64("p", 0.4, "edge probability")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		g := camelot.RandomGraph(*n, *p, cf.seed)
		coeffs, rep, err := camelot.ChromaticPolynomial(ctx, g, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("χ_G(t) coefficients (c_0..c_%d): %v\n", len(coeffs)-1, coeffs)
		printReport(rep)
		return nil

	case "tutte":
		n := fs.Int("n", 6, "vertices")
		edges := fs.Int("edges", 8, "edge count (multigraph, drawn uniformly)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		mg := camelot.RandomMultigraph(*n, *edges, cf.seed)
		start := time.Now()
		res, err := camelot.TuttePolynomial(ctx, mg, opts...)
		if err != nil {
			return err
		}
		fmt.Printf("Tutte polynomial recovered in %v over %d Fortuin–Kasteleyn lines\n",
			time.Since(start).Round(time.Millisecond), len(res.Reports))
		fmt.Printf("  spanning trees T(1,1) = %v\n", camelot.EvalTutte(res.T, 1, 1))
		fmt.Printf("  forests        T(2,1) = %v\n", camelot.EvalTutte(res.T, 2, 1))
		fmt.Printf("  2^m check      T(2,2) = %v\n", camelot.EvalTutte(res.T, 2, 2))
		printReport(res.Reports[0])
		return nil

	case "cnfsat":
		vars := fs.Int("vars", 12, "variables")
		clauses := fs.Int("clauses", 20, "clauses")
		width := fs.Int("width", 3, "literals per clause")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		f := camelot.RandomCNF(*vars, *clauses, *width, cf.seed)
		count, rep, err := camelot.CountCNFSolutions(ctx, f, opts...)
		return report("#SAT", count, rep, err)

	case "permanent":
		n := fs.Int("n", 10, "matrix dimension")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		a := camelot.RandomIntMatrix(*n, cf.seed)
		per, rep, err := camelot.Permanent(ctx, a, opts...)
		return report("permanent", per, rep, err)

	case "hamilton":
		n := fs.Int("n", 9, "vertices")
		p := fs.Float64("p", 0.5, "edge probability")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		g := camelot.RandomGraph(*n, *p, cf.seed)
		count, rep, err := camelot.CountHamiltonianCycles(ctx, g, opts...)
		return report("hamiltonian cycles", count, rep, err)

	case "setcover":
		n := fs.Int("n", 10, "universe size")
		sets := fs.Int("sets", 30, "family size")
		t := fs.Int("t", 4, "cover size")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		fam := randomFamily(*n, *sets, cf.seed)
		count, rep, err := camelot.CountSetCovers(ctx, fam, *n, *t, opts...)
		return report(fmt.Sprintf("%d-covers", *t), count, rep, err)

	case "ov":
		n := fs.Int("n", 128, "vectors per side")
		t := fs.Int("t", 16, "dimension")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		a := camelot.RandomBoolMatrix(*n, *t, 0.3, cf.seed)
		b := camelot.RandomBoolMatrix(*n, *t, 0.3, cf.seed+1)
		counts, rep, err := camelot.CountOrthogonalPairs(ctx, *n, *t, a, b, opts...)
		if err != nil {
			return err
		}
		total := int64(0)
		for _, c := range counts {
			total += c
		}
		fmt.Printf("orthogonal pairs: %d\n", total)
		printReport(rep)
		return nil

	case "conv3sum":
		n := fs.Int("n", 64, "array length (even)")
		bits := fs.Int("bits", 10, "integer bit width")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		a := randomArray(*n, *bits, cf.seed)
		counts, rep, err := camelot.Convolution3SUM(ctx, a, *bits, opts...)
		if err != nil {
			return err
		}
		total := int64(0)
		for _, c := range counts {
			total += c
		}
		fmt.Printf("convolution-3SUM solutions: %d\n", total)
		printReport(rep)
		return nil

	case "csp":
		n := fs.Int("n", 12, "variables (multiple of 6)")
		sigma := fs.Int("sigma", 2, "alphabet size")
		m := fs.Int("m", 8, "constraints")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		opts, err := cf.options()
		if err != nil {
			return err
		}
		sys := randomCSP(*n, *sigma, *m, cf.seed)
		dist, rep, err := camelot.CSPDistribution(ctx, sys, opts...)
		if err != nil {
			return err
		}
		fmt.Println("assignments by satisfied-constraint count:")
		for k, v := range dist {
			if v.Sign() != 0 {
				fmt.Printf("  %2d satisfied: %v\n", k, v)
			}
		}
		printReport(rep)
		return nil

	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

func report(label string, count *big.Int, rep *camelot.Report, err error) error {
	if err != nil {
		return err
	}
	fmt.Printf("%s: %v\n", label, count)
	printReport(rep)
	return nil
}

func printReport(rep *camelot.Report) {
	fmt.Printf("  problem        %s\n", rep.Problem)
	fmt.Printf("  nodes          %d (byzantine: %v, identified: %v, undelivered: %v)\n",
		rep.Nodes, rep.ByzantineNodes, rep.SuspectNodes, rep.MissingNodes)
	if rep.RepairRounds > 0 {
		fmt.Printf("  repair         %d round(s), recovered nodes %v\n",
			rep.RepairRounds, rep.RepairedNodes)
	}
	fmt.Printf("  proof          degree %d, %d symbols over primes %v\n",
		rep.Degree, rep.ProofSymbols, rep.Primes)
	fmt.Printf("  codeword       %d points, tolerance %d, corrupted shares seen %d\n",
		rep.CodeLength, rep.FaultTolerance, rep.CorruptedShares)
	fmt.Printf("  compute        wall %v, max/node %v, total %v\n",
		rep.ComputeWall.Round(time.Microsecond),
		rep.MaxNodeCompute.Round(time.Microsecond),
		rep.TotalNodeCompute.Round(time.Microsecond))
	fmt.Printf("  decode         wall %v\n", rep.DecodeWall.Round(time.Microsecond))
	fmt.Printf("  verification   %d trial(s), %v each, accepted=%v\n",
		rep.VerifyTrials, rep.VerifyPerTrial.Round(time.Microsecond), rep.Verified)
}
