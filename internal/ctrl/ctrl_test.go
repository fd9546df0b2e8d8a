package ctrl

// End-to-end tests of the control protocol against the real engine:
// in-process goroutine "daemons" (the multi-OS-process variant lives
// in examples/multiproc and CI) driving coordinator transports through
// core.Run, plus hand-rolled fake workers and raw connections for the
// protocol edges a well-behaved daemon never exercises —
// reconnect-with-resume, authentication tampering, frames for work
// never assigned, and malformed bytes. This is the only code that
// carries shares over sockets, so the socket-level fault weather
// (killed workers, a liar beside a lost node, repair rounds) is pinned
// here.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"camelot/internal/core"
)

// polyProblem is a minimal deterministic workload: one proof
// polynomial P(x) = Σ_{i=0..d} ((salt+i) mod q) x^i. Registered under
// kind "ctrl-poly" with instance encoding "d=N salt=S".
type polyProblem struct {
	d    int
	salt uint64
}

func (p polyProblem) Name() string       { return "ctrl-poly" }
func (p polyProblem) Width() int         { return 1 }
func (p polyProblem) Degree() int        { return p.d }
func (p polyProblem) MinModulus() uint64 { return 1 << 10 }
func (p polyProblem) NumPrimes() int     { return 2 }
func (p polyProblem) Evaluate(q, x uint64) ([]uint64, error) {
	var acc uint64
	for i := p.d; i >= 0; i-- {
		acc = (acc*x + (p.salt+uint64(i))%q) % q
	}
	return []uint64{acc}, nil
}

func parsePolyInstance(instance []byte) (core.Problem, error) {
	var p polyProblem
	if _, err := fmt.Sscanf(string(instance), "d=%d salt=%d", &p.d, &p.salt); err != nil {
		return nil, fmt.Errorf("ctrl-poly instance %q: %w", instance, err)
	}
	if p.d < 0 || p.d > 1<<12 {
		return nil, fmt.Errorf("ctrl-poly instance %q: bad degree", instance)
	}
	return p, nil
}

func init() {
	RegisterProblem("ctrl-poly", parsePolyInstance)
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// runBus is the in-process reference run every remote test compares
// against, bit for bit.
func runBus(t *testing.T, p core.Problem, opts core.Options) []byte {
	t.Helper()
	proof, _, err := core.Run(testCtx(t), p, opts)
	if err != nil {
		t.Fatalf("bus run: %v", err)
	}
	raw, err := proof.MarshalBinary()
	if err != nil {
		t.Fatalf("bus proof marshal: %v", err)
	}
	return raw
}

func marshal(t *testing.T, proof *core.Proof) []byte {
	t.Helper()
	raw, err := proof.MarshalBinary()
	if err != nil {
		t.Fatalf("proof marshal: %v", err)
	}
	return raw
}

// startWorkers runs n worker daemons as goroutines, worker i configured
// by cfg(i). The returned wait blocks until every daemon has exited and
// reports their errors in order; the test's end cancels any daemon
// still running.
func startWorkers(t *testing.T, n int, cfg func(i int) WorkerConfig) (wait func() []error) {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunWorker(ctx, cfg(i))
		}(i)
	}
	return func() []error {
		wg.Wait()
		return errs
	}
}

// checkWorkers asserts that exactly wantInjected daemons died of their
// FailOwner fault and every other one exited cleanly.
func checkWorkers(t *testing.T, errs []error, wantInjected int) {
	t.Helper()
	injected := 0
	for i, err := range errs {
		if errors.Is(err, ErrFailInjected) {
			injected++
		} else if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if injected != wantInjected {
		t.Errorf("%d workers died of the injected fault, want %d", injected, wantInjected)
	}
}

// runResult is one background core.Run's outcome.
type runResult struct {
	proof  *core.Proof
	report *core.Report
	err    error
}

// startRun drives core.Run over co in the background, for tests whose
// foreground plays the worker side by hand.
func startRun(ctx context.Context, co *Coordinator, p core.Problem, opts core.Options) <-chan runResult {
	opts.NewTransport = func(k int) core.Transport { return co }
	done := make(chan runResult, 1)
	go func() {
		proof, report, err := core.Run(ctx, p, opts)
		done <- runResult{proof, report, err}
	}()
	return done
}

// TestRemoteRunBitIdentity: a coordinator with two worker goroutines
// (fewer workers than logical nodes, so each worker serves multiple
// assignments) produces a proof bit-identical to the in-process bus
// run, with frame authentication on.
func TestRemoteRunBitIdentity(t *testing.T) {
	p := polyProblem{d: 6, salt: 11}
	instance := []byte("d=6 salt=11")
	secret := []byte("cluster-secret")
	busRaw := runBus(t, p, core.Options{Nodes: 4, Seed: 42})

	co, err := NewCoordinator(4, Config{
		Kind: "ctrl-poly", Instance: instance, Secret: secret,
		MinWorkers: 2, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	wait := startWorkers(t, 2, func(i int) WorkerConfig {
		return WorkerConfig{Join: co.Addr(), Secret: secret, Name: fmt.Sprintf("w%d", i)}
	})
	proof, report, err := core.Run(testCtx(t), p, core.Options{
		Nodes: 4, Seed: 42,
		NewTransport: func(k int) core.Transport { return co },
	})
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	checkWorkers(t, wait(), 0)
	if !report.Verified {
		t.Error("remote proof did not verify")
	}
	if got := marshal(t, proof); !bytes.Equal(got, busRaw) {
		t.Error("remote proof differs from bus proof")
	}
}

// TestRemoteRepairHealsKilledWorker: three workers, one rigged to die
// the moment round 0 assigns it node 1; the missing range must come
// back through a repair-round re-assignment to a survivor, and the
// healed proof must still be bit-identical.
func TestRemoteRepairHealsKilledWorker(t *testing.T) {
	p := polyProblem{d: 8, salt: 3}
	instance := []byte("d=8 salt=3")
	busRaw := runBus(t, p, core.Options{Nodes: 3, Seed: 7})

	co, err := NewCoordinator(3, Config{
		Kind: "ctrl-poly", Instance: instance,
		MinWorkers: 3, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every worker carries the same kill switch: which slot draws node 1
	// is a join-order race, and only that one dies.
	wait := startWorkers(t, 3, func(i int) WorkerConfig {
		return WorkerConfig{Join: co.Addr(), Name: fmt.Sprintf("w%d", i), FailOwner: 1}
	})
	proof, report, err := core.Run(testCtx(t), p, core.Options{
		Nodes: 3, Seed: 7,
		MaxErasures: 1, GatherGrace: 750 * time.Millisecond, MaxRepairRounds: 2,
		NewTransport: func(k int) core.Transport { return co },
	})
	if err != nil {
		t.Fatalf("remote run with churn: %v", err)
	}
	checkWorkers(t, wait(), 1)
	if report.RepairRounds < 1 {
		t.Errorf("RepairRounds = %d, want >= 1", report.RepairRounds)
	}
	if len(report.RepairedNodes) != 1 || report.RepairedNodes[0] != 1 {
		t.Errorf("RepairedNodes = %v, want [1]", report.RepairedNodes)
	}
	if len(report.MissingNodes) != 0 {
		t.Errorf("MissingNodes = %v after repair, want none", report.MissingNodes)
	}
	if got := marshal(t, proof); !bytes.Equal(got, busRaw) {
		t.Error("healed proof differs from bus proof")
	}
}

// TestRemoteKilledWorkerWithinBudget is the repair test's weather
// inside the erasure budget and with self-healing off: the quorum
// gather alone must absorb the dead worker's range as erasures. Eight
// workers serve eight nodes, one range each, so the kill costs exactly
// one owner. With d=7 and f=4 each node holds 2 of e=16 points, and
// the budget 2·errors + erasures ≤ 8 covers the lost node (2 erasures)
// and, in the second case, a liar beside it (2 errors) — delivery and
// content faults reported on separate axes, the proof bit-identical
// either way.
func TestRemoteKilledWorkerWithinBudget(t *testing.T) {
	const nodes, faults, owner, liar = 8, 4, 6, 3
	p := polyProblem{d: 7, salt: 5}
	instance := []byte("d=7 salt=5")
	busRaw := runBus(t, p, core.Options{Nodes: nodes, FaultTolerance: faults, Seed: 3})
	for _, tc := range []struct {
		name         string
		adversary    core.Adversary
		wantSuspects []int
	}{
		{name: "erasure-without-repair"},
		{name: "adversary-plus-loss", adversary: core.NewLyingNodes(3, liar), wantSuspects: []int{liar}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			co, err := NewCoordinator(nodes, Config{
				Kind: "ctrl-poly", Instance: instance,
				MinWorkers: nodes, JoinTimeout: 20 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			wait := startWorkers(t, nodes, func(i int) WorkerConfig {
				return WorkerConfig{Join: co.Addr(), Name: fmt.Sprintf("w%d", i), FailOwner: owner}
			})
			proof, report, err := core.Run(testCtx(t), p, core.Options{
				Nodes: nodes, FaultTolerance: faults, Seed: 3,
				MaxErasures: 1, GatherGrace: 2 * time.Second, MaxRepairRounds: 0,
				Adversary:    tc.adversary,
				NewTransport: func(k int) core.Transport { return co },
			})
			if err != nil {
				t.Fatalf("remote run with a killed worker: %v", err)
			}
			checkWorkers(t, wait(), 1)
			if !report.Verified {
				t.Error("remote proof did not verify")
			}
			if !slices.Equal(report.MissingNodes, []int{owner}) {
				t.Errorf("MissingNodes = %v, want [%d]", report.MissingNodes, owner)
			}
			if !slices.Equal(report.SuspectNodes, tc.wantSuspects) {
				t.Errorf("SuspectNodes = %v, want %v", report.SuspectNodes, tc.wantSuspects)
			}
			if report.RepairRounds != 0 {
				t.Errorf("RepairRounds = %d with repair disabled", report.RepairRounds)
			}
			if got := marshal(t, proof); !bytes.Equal(got, busRaw) {
				t.Error("proof differs from bus proof")
			}
		})
	}
}

// TestRemoteSilentWorkersWithinBudget is the quorum gather's loss case
// with two senders silent rather than dead: two fake workers join
// first, draw nodes 0 and 1 from the round-robin, and never answer
// while keeping their connections open — no detach, so only the grace
// timer can turn the silence into erasures. Six real daemons deliver
// the rest; with MaxErasures 2 the proof must be bit-identical to the
// bus run and MissingNodes exactly the silent pair.
func TestRemoteSilentWorkersWithinBudget(t *testing.T) {
	const nodes, faults = 8, 4
	ctx := testCtx(t)
	p := polyProblem{d: 7, salt: 13}
	opts := core.Options{Nodes: nodes, FaultTolerance: faults, Seed: 5}
	busRaw := runBus(t, p, opts)

	co, err := NewCoordinator(nodes, Config{
		Kind: "ctrl-poly", Instance: []byte("d=7 salt=13"),
		MinWorkers: nodes, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	silent := []*fakeWorker{dialFake(t, co.Addr(), nil, nil), dialFake(t, co.Addr(), nil, nil)}
	wait := startWorkers(t, nodes-len(silent), func(i int) WorkerConfig {
		return WorkerConfig{Join: co.Addr(), Name: fmt.Sprintf("w%d", i)}
	})
	opts.MaxErasures, opts.GatherGrace, opts.MaxRepairRounds = 2, 2*time.Second, 0
	runDone := startRun(ctx, co, p, opts)
	var owners []int
	for _, fw := range silent {
		owners = append(owners, fw.recvAssign().Owner)
	}
	res := <-runDone
	if res.err != nil {
		t.Fatalf("remote run with two silent workers: %v", res.err)
	}
	checkWorkers(t, wait(), 0)
	if !slices.Equal(owners, []int{0, 1}) {
		t.Fatalf("silent workers drew nodes %v, want [0 1]", owners)
	}
	if !slices.Equal(res.report.MissingNodes, owners) {
		t.Errorf("MissingNodes = %v, want %v", res.report.MissingNodes, owners)
	}
	if len(res.report.SuspectNodes) != 0 {
		t.Errorf("SuspectNodes = %v, want none", res.report.SuspectNodes)
	}
	if got := marshal(t, res.proof); !bytes.Equal(got, busRaw) {
		t.Error("proof differs from bus proof")
	}
	for _, fw := range silent {
		fw.conn.Close()
	}
}

// fakeWorker hand-drives the wire protocol, for the edges a real
// daemon hides: partial delivery, abrupt drops, resume handshakes, and
// deliberately bad MACs.
type fakeWorker struct {
	t    *testing.T
	conn net.Conn
	wc   *wireConn
	ack  HelloAck
}

func dialFake(t *testing.T, addr string, secret, resume []byte) *fakeWorker {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("fake worker dial: %v", err)
	}
	wc := newWireConn(conn, 64<<20)
	if err := wc.send(Hello{Version: ProtocolVersion, Resume: resume, Name: "fake"}); err != nil {
		t.Fatalf("fake worker hello: %v", err)
	}
	_, msg, err := wc.recv()
	if err != nil {
		t.Fatalf("fake worker helloAck: %v", err)
	}
	ack, ok := msg.(HelloAck)
	if !ok {
		t.Fatalf("fake worker: expected HelloAck, got %T: %+v", msg, msg)
	}
	wc.key = deriveKey(secret, ack.Challenge)
	return &fakeWorker{t: t, conn: conn, wc: wc, ack: ack}
}

func (f *fakeWorker) recvAssign() Assign {
	f.t.Helper()
	f.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, msg, err := f.wc.recv()
	if err != nil {
		f.t.Fatalf("fake worker recv assign: %v", err)
	}
	a, ok := msg.(Assign)
	if !ok {
		f.t.Fatalf("fake worker: expected Assign, got %T: %+v", msg, msg)
	}
	return a
}

func (f *fakeWorker) sendShares(ctx context.Context, p core.Problem, a Assign) {
	f.t.Helper()
	shares, err := core.EvaluateShares(ctx, p, a.Primes, a.Owner, f.ack.Worker, a.Round, a.Lo, a.Hi)
	if err != nil {
		f.t.Fatalf("fake worker evaluate: %v", err)
	}
	if err := f.wc.send(shares); err != nil {
		f.t.Fatalf("fake worker send shares: %v", err)
	}
}

// waitDelivered polls the coordinator's assignment table until the
// round-0 assignment for owner is marked delivered.
func waitDelivered(t *testing.T, co *Coordinator, owner int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		co.mu.Lock()
		a := co.assigned[assignKey{owner: owner, round: 0}]
		done := a != nil && a.delivered
		co.mu.Unlock()
		if done {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("owner %d shares never credited as delivered", owner)
}

// TestRemoteReconnectResume: a worker delivers half its work, drops,
// and rejoins with its resume token; the coordinator must replay
// exactly the undelivered assignment and the strict run must complete
// as if nothing happened.
func TestRemoteReconnectResume(t *testing.T) {
	ctx := testCtx(t)
	p := polyProblem{d: 7, salt: 23}
	instance := []byte("d=7 salt=23")
	secret := []byte("resume-secret")
	busRaw := runBus(t, p, core.Options{Nodes: 2, Seed: 5})

	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: instance, Secret: secret,
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := startRun(ctx, co, p, core.Options{Nodes: 2, Seed: 5})

	fw := dialFake(t, co.Addr(), secret, nil)
	a0, a1 := fw.recvAssign(), fw.recvAssign()
	if a0.Owner != 0 || a1.Owner != 1 {
		t.Fatalf("assignments owners (%d, %d), want (0, 1)", a0.Owner, a1.Owner)
	}
	if a0.Kind != "ctrl-poly" || !bytes.Equal(a0.Instance, instance) {
		t.Fatalf("assignment manifest (%q, %q) does not match workload", a0.Kind, a0.Instance)
	}
	fw.sendShares(ctx, p, a0)
	// The drop must happen after the coordinator has credited owner 0's
	// delivery, or the replay set races to include both owners (white-box
	// peek: the test lives in package ctrl).
	waitDelivered(t, co, 0)
	resume := fw.ack.Resume
	fw.conn.Close() // abrupt drop, owner 1 undelivered

	fw2 := dialFake(t, co.Addr(), secret, resume[:])
	if fw2.ack.Worker != fw.ack.Worker {
		t.Fatalf("resume landed on slot %d, want original slot %d", fw2.ack.Worker, fw.ack.Worker)
	}
	replayed := fw2.recvAssign()
	if replayed.Owner != 1 || replayed.Round != 0 {
		t.Fatalf("replayed assignment (owner %d, round %d), want (1, 0)", replayed.Owner, replayed.Round)
	}
	fw2.sendShares(ctx, p, replayed)

	res := <-runDone
	if res.err != nil {
		t.Fatalf("strict run across reconnect: %v", res.err)
	}
	if got := marshal(t, res.proof); !bytes.Equal(got, busRaw) {
		t.Error("resumed proof differs from bus proof")
	}
	fw2.conn.Close()
}

// sendTampered writes a shares-shaped frame whose MAC is garbage,
// bypassing wireConn's honest MAC computation.
func (f *fakeWorker) sendTampered(seq uint64) {
	f.t.Helper()
	body, err := core.EncodeNodeShares(core.NodeShares{ID: 0, From: f.ack.Worker, Round: 0, Lo: 0, Hi: 0})
	if err != nil {
		f.t.Fatal(err)
	}
	payload := EncodeControl(Frame{Tag: TagShares, Seq: seq, MAC: make([]byte, macSize), Body: body})
	if err := core.WriteFrame(f.conn, payload); err != nil {
		f.t.Fatalf("fake worker write tampered frame: %v", err)
	}
}

// TestAuthTamperStrict: in strict mode a tampered frame is a typed
// refusal — the run fails and errors.Is sees ErrAuth.
func TestAuthTamperStrict(t *testing.T) {
	ctx := testCtx(t)
	p := polyProblem{d: 5, salt: 9}
	secret := []byte("tamper-secret")
	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: []byte("d=5 salt=9"), Secret: secret,
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := startRun(ctx, co, p, core.Options{Nodes: 2, Seed: 1})
	fw := dialFake(t, co.Addr(), secret, nil)
	a0, _ := fw.recvAssign(), fw.recvAssign()
	fw.sendShares(ctx, p, a0) // seq 1: one honest delivery
	fw.sendTampered(2)        // then a forged frame
	err = (<-runDone).err
	if err == nil {
		t.Fatal("strict run accepted a tampered frame")
	}
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("strict refusal not typed ErrAuth: %v", err)
	}
	if co.BadFrames() == 0 {
		t.Error("tampered frame not counted")
	}
}

// TestAuthTamperQuorum: the same tampering under MaxErasures is the
// owner's delivery fault — absorbed as an erasure, run verifies, proof
// bit-identical.
func TestAuthTamperQuorum(t *testing.T) {
	ctx := testCtx(t)
	p := polyProblem{d: 5, salt: 9}
	instance := []byte("d=5 salt=9")
	secret := []byte("tamper-secret")
	// Losing one of two nodes erases half the code length e = d+1+2f, so
	// erasure-only decoding needs 2f >= d+1: f=3 for d=5.
	busRaw := runBus(t, p, core.Options{Nodes: 2, Seed: 1, FaultTolerance: 3})

	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: instance, Secret: secret,
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := startRun(ctx, co, p, core.Options{
		Nodes: 2, Seed: 1, FaultTolerance: 3,
		MaxErasures: 1, GatherGrace: 500 * time.Millisecond,
	})
	fw := dialFake(t, co.Addr(), secret, nil)
	a0, _ := fw.recvAssign(), fw.recvAssign()
	fw.sendShares(ctx, p, a0) // owner 0 delivered honestly
	fw.sendTampered(2)        // owner 1's delivery is a forgery
	res := <-runDone
	if res.err != nil {
		t.Fatalf("quorum run should absorb tampering as a delivery fault: %v", res.err)
	}
	if len(res.report.MissingNodes) != 1 || res.report.MissingNodes[0] != 1 {
		t.Errorf("MissingNodes = %v, want [1]", res.report.MissingNodes)
	}
	if got := marshal(t, res.proof); !bytes.Equal(got, busRaw) {
		t.Error("quorum proof differs from bus proof")
	}
}

// TestRemoteUnassignedFrameDropped pins the claimShares filter: an
// authenticated worker streaming shares for an owner it was never
// assigned — node 7 of a 2-node run — must have that frame dropped at
// the coordinator. Fed through, it would fail the whole gather as a
// protocol violation, handing any joined worker a one-frame kill
// switch. The connection survives, and the honest frames that follow
// complete the strict run bit-identically.
func TestRemoteUnassignedFrameDropped(t *testing.T) {
	ctx := testCtx(t)
	p := polyProblem{d: 5, salt: 17}
	secret := []byte("claim-secret")
	busRaw := runBus(t, p, core.Options{Nodes: 2, Seed: 2})

	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: []byte("d=5 salt=17"), Secret: secret,
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := startRun(ctx, co, p, core.Options{Nodes: 2, Seed: 2})
	fw := dialFake(t, co.Addr(), secret, nil)
	a0, a1 := fw.recvAssign(), fw.recvAssign()
	forged := core.NodeShares{ID: 7, From: fw.ack.Worker, Lo: 0, Hi: 1, Vals: [][][]uint64{{{1}}}}
	if err := fw.wc.send(forged); err != nil {
		t.Fatalf("fake worker send forged shares: %v", err)
	}
	fw.sendShares(ctx, p, a0)
	fw.sendShares(ctx, p, a1)
	res := <-runDone
	if res.err != nil {
		t.Fatalf("strict run after an unassigned frame: %v", res.err)
	}
	if got := marshal(t, res.proof); !bytes.Equal(got, busRaw) {
		t.Error("proof differs from bus proof")
	}
	if got := co.BadFrames(); got != 1 {
		t.Errorf("BadFrames = %d, want 1 (the unassigned frame)", got)
	}
	fw.conn.Close()
}

// TestRemoteInBandErrorFailsStrictRun: a worker-side evaluation failure
// travels as an in-band Err frame, and a strict run surfaces its text
// exactly as it would an in-process node failure.
func TestRemoteInBandErrorFailsStrictRun(t *testing.T) {
	ctx := testCtx(t)
	p := polyProblem{d: 5, salt: 9}
	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: []byte("d=5 salt=9"),
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := startRun(ctx, co, p, core.Options{Nodes: 2, Seed: 1})
	fw := dialFake(t, co.Addr(), nil, nil)
	a0, a1 := fw.recvAssign(), fw.recvAssign()
	const why = "node 0: the grail was a lie"
	failed := core.NodeShares{
		ID: a0.Owner, From: fw.ack.Worker, Round: a0.Round, Lo: a0.Lo, Hi: a0.Hi,
		Err: &core.RemoteError{Msg: why},
	}
	if err := fw.wc.send(failed); err != nil {
		t.Fatalf("fake worker send in-band error: %v", err)
	}
	// The strict gather counts raw frames: it hands both to the
	// collector, which surfaces the failure.
	fw.sendShares(ctx, p, a1)
	res := <-runDone
	if res.err == nil || !strings.Contains(res.err.Error(), why) {
		t.Fatalf("run err = %v, want the worker's %q", res.err, why)
	}
	fw.conn.Close()
}

// TestCoordinatorMalformedFramesCostTheConnection writes garbage and an
// oversized length claim straight onto raw connections: the
// coordinator must count both, drop those connections before any
// handshake (rejecting the claim without allocating it), and still
// serve an honest worker the whole run.
func TestCoordinatorMalformedFramesCostTheConnection(t *testing.T) {
	p := polyProblem{d: 4, salt: 1}
	busRaw := runBus(t, p, core.Options{Nodes: 2, Seed: 6})
	co, err := NewCoordinator(2, Config{
		Kind: "ctrl-poly", Instance: []byte("d=4 salt=1"),
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	dial := func() net.Conn {
		t.Helper()
		c, err := net.DialTimeout("tcp", co.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	garbage := dial()
	if err := core.WriteFrame(garbage, []byte("not a control frame")); err != nil {
		t.Fatal(err)
	}
	oversized := dial()
	if _, err := oversized.Write([]byte{0xFF, 0xFF, 0xFF, 0x3F}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]net.Conn{"garbage": garbage, "oversized": oversized} {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var buf [1]byte
		_, err := c.Read(buf[:])
		if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s connection still open after its bad frame (read err %v)", name, err)
		}
	}
	if got := co.BadFrames(); got != 2 {
		t.Fatalf("BadFrames = %d, want 2", got)
	}

	wait := startWorkers(t, 1, func(int) WorkerConfig { return WorkerConfig{Join: co.Addr()} })
	proof, _, err := core.Run(testCtx(t), p, core.Options{
		Nodes: 2, Seed: 6,
		NewTransport: func(k int) core.Transport { return co },
	})
	if err != nil {
		t.Fatalf("run after malformed connections: %v", err)
	}
	checkWorkers(t, wait(), 0)
	if got := marshal(t, proof); !bytes.Equal(got, busRaw) {
		t.Error("proof differs from bus proof")
	}
}

// TestCoordinatorGatherLifecycle: with no worker ever joining, both
// gathers end with their context; Close then returns promptly, and the
// closed coordinator refuses further use at once — Send, both gathers
// and AssignRanges fail instead of blocking.
func TestCoordinatorGatherLifecycle(t *testing.T) {
	co, err := NewCoordinator(4, Config{Kind: "ctrl-poly", Instance: []byte("d=3 salt=0")})
	if err != nil {
		t.Fatal(err)
	}
	spec := core.GatherSpec{K: 4, Quorum: 4, Grace: time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := co.Gather(ctx, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Gather = %v, want deadline", err)
	}
	if _, err := co.GatherQuorum(ctx, spec); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GatherQuorum = %v, want deadline", err)
	}

	closed := make(chan struct{})
	go func() {
		co.Close()
		co.Close() // idempotent
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}

	live := testCtx(t)
	if err := co.Send(live, core.NodeShares{}); err == nil {
		t.Error("Send after Close succeeded")
	}
	if _, err := co.Gather(live, 1); !errors.Is(err, errClosed) {
		t.Errorf("Gather after Close = %v, want errClosed", err)
	}
	if _, err := co.GatherQuorum(live, spec); !errors.Is(err, errClosed) {
		t.Errorf("GatherQuorum after Close = %v, want errClosed", err)
	}
	if err := co.AssignRanges(live, []core.AssignSpec{{Owner: 0, Hi: 1, Width: 1, Primes: []uint64{1031}}}); !errors.Is(err, errClosed) {
		t.Errorf("AssignRanges after Close = %v, want errClosed", err)
	}
}

// TestCoordinatorFactoryFailureSurfaces: a coordinator factory whose
// bind fails yields a transport reporting the root cause, and a run
// using it fails with that cause instead of hanging a remote gather.
func TestCoordinatorFactoryFailureSurfaces(t *testing.T) {
	factory := NewCoordinatorFactory(Config{
		ListenAddr: "this is not:a bindable:address",
		Kind:       "ctrl-poly", Instance: []byte("d=3 salt=0"),
	})
	_, _, err := core.Run(testCtx(t), polyProblem{d: 3}, core.Options{Nodes: 2, NewTransport: factory})
	if err == nil || !strings.Contains(err.Error(), "listen") {
		t.Fatalf("run err = %v, want the listener failure", err)
	}
}

// deadAddr returns a loopback address nothing listens on (it was just
// bound and released).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestWorkerRetriesUntilCoordinatorUp: a daemon started before its
// coordinator bridges the gap with its dial-retry loop, and the run
// then completes bit-identically.
func TestWorkerRetriesUntilCoordinatorUp(t *testing.T) {
	p := polyProblem{d: 6, salt: 2}
	busRaw := runBus(t, p, core.Options{Nodes: 2, Seed: 8})
	addr := deadAddr(t)
	wait := startWorkers(t, 1, func(int) WorkerConfig {
		return WorkerConfig{Join: addr, RetryBackoff: 25 * time.Millisecond, MaxAttempts: 20}
	})
	time.Sleep(150 * time.Millisecond)
	co, err := NewCoordinator(2, Config{
		ListenAddr: addr, Kind: "ctrl-poly", Instance: []byte("d=6 salt=2"),
		MinWorkers: 1, JoinTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("coordinator on the reserved address: %v", err)
	}
	proof, _, err := core.Run(testCtx(t), p, core.Options{
		Nodes: 2, Seed: 8,
		NewTransport: func(k int) core.Transport { return co },
	})
	if err != nil {
		t.Fatalf("run with a late coordinator: %v", err)
	}
	checkWorkers(t, wait(), 0)
	if got := marshal(t, proof); !bytes.Equal(got, busRaw) {
		t.Error("proof differs from bus proof")
	}
}

// TestWorkerGivesUpOnDeadCoordinator: with nothing listening, the
// daemon stops after its bounded attempts with the dial failure rather
// than retrying forever.
func TestWorkerGivesUpOnDeadCoordinator(t *testing.T) {
	err := RunWorker(testCtx(t), WorkerConfig{
		Join: deadAddr(t), RetryBackoff: 5 * time.Millisecond, MaxAttempts: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("RunWorker = %v, want the giving-up failure", err)
	}
}
