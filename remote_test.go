package camelot

// Facade-level tests for the multi-process deployment surface: the
// workload spec grammar and a coordinator + in-process worker-daemon
// run observed entirely through the public API (the OS-process variant
// lives in examples/multiproc and CI).

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestParseWorkloadGrammar pins the spec grammar: defaults, kinds,
// canonical instance bytes, and the rejection surface.
func TestParseWorkloadGrammar(t *testing.T) {
	for _, spec := range []string{
		"triangles", "triangles n=16 p=0.4 seed=3",
		"cliques n=7 k=6", "permanent n=6",
		"cnfsat vars=8 clauses=12 width=2", "hamilton n=7 p=0.6",
	} {
		w, err := ParseWorkload(spec)
		if err != nil {
			t.Errorf("ParseWorkload(%q): %v", spec, err)
			continue
		}
		if want := strings.Fields(spec)[0]; w.Kind != want {
			t.Errorf("ParseWorkload(%q): kind %q, want %q", spec, w.Kind, want)
		}
		if w.Problem == nil {
			t.Errorf("ParseWorkload(%q): nil problem", spec)
		}
	}
	w, err := ParseWorkload("  triangles   n=16  p=0.4 ")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(w.Instance); got != "n=16 p=0.4" {
		t.Errorf("instance not canonicalized: %q", got)
	}
	for _, bad := range []string{
		"", "warlocks n=3", "triangles n=three",
		"triangles n", "cnfsat vars=8 width=2.5",
	} {
		if _, err := ParseWorkload(bad); err == nil {
			t.Errorf("ParseWorkload(%q) accepted", bad)
		}
	}
}

// TestParseWorkloadDefaultsMatchExplicit pins that an omitted field and
// its documented default build the same problem — the property worker
// daemons rely on when a manifest spells fewer fields than the
// coordinator's parse saw.
func TestParseWorkloadDefaultsMatchExplicit(t *testing.T) {
	implicit, err := ParseWorkload("triangles")
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := ParseWorkload("triangles n=32 p=0.3 seed=1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pa, _, err := RunProblem(ctx, implicit.Problem, WithNodes(2), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := RunProblem(ctx, explicit.Problem, WithNodes(2), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := pa.MarshalBinary()
	rb, _ := pb.MarshalBinary()
	if !bytes.Equal(ra, rb) {
		t.Error("default and explicit specs built different problems")
	}
}

// TestCoordinatorFacadeBitIdentity drives a remote run entirely through
// the public surface: NewCoordinator + AsTransport on the run side,
// ServeNode daemons on the worker side, proof bit-identical to the
// in-process default run.
func TestCoordinatorFacadeBitIdentity(t *testing.T) {
	const spec = "triangles n=12 p=0.5 seed=2"
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w, err := ParseWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	busProof, _, err := RunProblem(ctx, w.Problem, WithNodes(3), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	busRaw, _ := busProof.MarshalBinary()

	co, err := NewCoordinator(3, CoordinatorConfig{
		Workload:   spec,
		ListenAddr: "127.0.0.1:0",
		Secret:     []byte("facade-secret"),
		MinWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = ServeNode(ctx, NodeConfig{Join: co.Addr(), Secret: []byte("facade-secret")})
		}(i)
	}
	proof, rep, err := RunProblem(ctx, co.Workload().Problem,
		WithNodes(3), WithSeed(4), co.AsTransport())
	if err != nil {
		t.Fatalf("remote facade run: %v", err)
	}
	wg.Wait()
	for i, werr := range werrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if !rep.Verified {
		t.Error("remote proof did not verify")
	}
	raw, _ := proof.MarshalBinary()
	if !bytes.Equal(raw, busRaw) {
		t.Error("remote facade proof differs from bus proof")
	}
	count, err := co.Workload().Problem.Count(proof)
	if err != nil {
		t.Fatalf("count recovery: %v", err)
	}
	busCount, _ := w.Problem.Count(busProof)
	if count.Cmp(busCount) != 0 {
		t.Errorf("remote count %v != bus count %v", count, busCount)
	}
}

// TestCoordinatorFacadeLossRecovers is the public API's delivery-fault
// path over real sockets: eight ServeNode daemons all carry the same
// FailOwner, so whichever draws node 4 dies, and the run — erasure
// budget 1, repair off — must absorb that node's range as erasures and
// still produce the bus run's proof bit for bit.
func TestCoordinatorFacadeLossRecovers(t *testing.T) {
	const spec = "triangles n=20 p=0.3 seed=7"
	const k, faults, owner = 8, 12, 4 // ~22 points per node, budget 24 covers one node
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w, err := ParseWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	busProof, _, err := RunProblem(ctx, w.Problem, WithNodes(k), WithSeed(3), WithFaultTolerance(faults))
	if err != nil {
		t.Fatal(err)
	}
	busRaw, _ := busProof.MarshalBinary()

	co, err := NewCoordinator(k, CoordinatorConfig{
		Workload: spec, ListenAddr: "127.0.0.1:0", MinWorkers: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	werrs := make([]error, k)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = ServeNode(ctx, NodeConfig{Join: co.Addr(), FailOwner: owner})
		}(i)
	}
	proof, rep, err := RunProblem(ctx, co.Workload().Problem,
		WithNodes(k), WithSeed(3), WithFaultTolerance(faults),
		WithMaxErasures(1), WithGatherGrace(2*time.Second), WithMaxRepairRounds(0),
		co.AsTransport())
	if err != nil {
		t.Fatalf("remote facade run with a killed node: %v", err)
	}
	wg.Wait()
	died := 0
	for i, werr := range werrs {
		switch {
		case werr == nil:
		case strings.Contains(werr.Error(), "assigned node 4"):
			died++
		default:
			t.Errorf("worker %d: %v", i, werr)
		}
	}
	if died != 1 {
		t.Errorf("%d workers died of the injected fault, want 1", died)
	}
	if len(rep.MissingNodes) != 1 || rep.MissingNodes[0] != owner {
		t.Fatalf("MissingNodes = %v, want [%d]", rep.MissingNodes, owner)
	}
	raw, _ := proof.MarshalBinary()
	if !bytes.Equal(raw, busRaw) {
		t.Fatal("lossy remote facade proof differs from bus proof")
	}
}

// TestCoordinatorNodeMismatch pins the AsTransport guard: a run whose
// WithNodes disagrees with the coordinator's geometry fails with a
// naming error instead of shipping wrong ranges.
func TestCoordinatorNodeMismatch(t *testing.T) {
	co, err := NewCoordinator(3, CoordinatorConfig{Workload: "triangles n=8", ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err = RunProblem(ctx, co.Workload().Problem, WithNodes(2), co.AsTransport())
	if err == nil || !strings.Contains(err.Error(), "coordinator built for 3 nodes") {
		t.Fatalf("mismatched run error = %v, want coordinator geometry complaint", err)
	}
}
