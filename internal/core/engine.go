package core

// The pipeline layer wires the paper's three protocol steps — prepare,
// decode, verify — as explicit stages over the transport and scheduler
// layers. Each stage observes context cancellation at entry and inside
// its hot loops, so a cancelled run returns promptly no matter which
// stage it is in.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camelot/internal/rs"
)

// Report records what a Camelot run did: sizing, timing, adversary
// damage, and verification outcome. All durations are wall-clock per
// phase; MaxNodeCompute approximates the paper's per-node time E and
// TotalNodeCompute the total work EK.
type Report struct {
	// Problem is the Problem.Name of the run.
	Problem string
	// Nodes is K, the number of compute nodes.
	Nodes int
	// Width, Degree, CodeLength, FaultTolerance echo the run geometry
	// (CodeLength is e = Degree+1+2·FaultTolerance).
	Width, Degree, CodeLength, FaultTolerance int
	// Primes are the proof moduli.
	Primes []uint64
	// ProofSymbols is the total proof size in field symbols.
	ProofSymbols int
	// ByzantineNodes are the adversary-controlled node ids.
	ByzantineNodes []int
	// SuspectNodes are the nodes the honest decoders identified as having
	// contributed corrupted shares (union across decoders).
	SuspectNodes []int
	// MissingNodes are the nodes whose share broadcasts never arrived —
	// delivery faults, reported distinctly from the content-fault
	// SuspectNodes. Their coordinates were decoded as erasures. When
	// repair rounds ran, this is the set still missing after the last
	// round; nodes a repair recovered move to RepairedNodes.
	MissingNodes []int
	// RepairedNodes are the nodes whose lost broadcasts a repair round
	// recovered: their point ranges were recomputed by surviving nodes
	// and re-gathered, so their coordinates were decoded as ordinary
	// symbols after all. Sorted ascending.
	RepairedNodes []int
	// RepairRounds is the number of self-healing gather rounds the run
	// executed (0 when repair never triggered or was disabled).
	RepairRounds int
	// CorruptedShares is the largest number of error locations any single
	// decoder observed (per prime and coordinate, maximized).
	CorruptedShares int
	// ComputeWall is the wall-clock duration of the distributed
	// evaluation phase.
	ComputeWall time.Duration
	// MaxNodeCompute is the largest single node's evaluation time (≈ E).
	MaxNodeCompute time.Duration
	// TotalNodeCompute is the summed evaluation time of all nodes (≈ EK).
	TotalNodeCompute time.Duration
	// DecodeWall is the wall-clock duration of the decode phase: erasure
	// plans and word decodes, summed over every attempt (a repair run
	// decodes once per round, failed attempts included).
	DecodeWall time.Duration
	// VerifyPerTrial is the average duration of one verification trial.
	VerifyPerTrial time.Duration
	// VerifyTrials is the number of spot checks performed.
	VerifyTrials int
	// Verified reports whether every trial accepted.
	Verified bool
}

// engine holds one run's resolved geometry and shared state; its methods
// are the pipeline stages.
type engine struct {
	p    Problem
	opts Options
	// planner resolves and memoizes the run's per-prime evaluation
	// plans: every chunk task and repair round of this run shares one
	// compile per prime, and runs submitted with Options.Plans/PlanKey
	// share compiles across runs.
	planner *Planner
	w, d    int // width, degree bound
	e, k    int // code length, node count (clamped to e)
	primes  []uint64
	assign  PointAssignment
	codes   []*rs.Code
	report  *Report
	obs     Observer
	// chunkPoints caps the points in one prepare task: maxChunkPoints,
	// fixed at construction (tests lift it to compare task splits).
	chunkPoints int
	// pointsLeft is the progress-credit budget: the (point, prime)
	// units announced via Observer.Geometry that have not been credited
	// through Observer.PointsDone yet. Repair rounds re-evaluate ranges
	// whose round-0 evaluation may already have been credited (locally
	// the computation succeeded — only the broadcast was lost), so all
	// crediting routes through creditPoints, which debits this budget
	// and clamps at zero: PointsDone can never exceed PointsTotal.
	pointsLeft atomic.Int64

	// Transport state, owned for the whole run once stagePrepare builds
	// it: repair rounds re-gather over the same instance, so the engine
	// — not the gather — decides when the transport's world ends (see
	// closeTransport). quorumTr is the same transport's quorum
	// capability; keepOpen records that gathers must leave it alive for
	// potential repair rounds.
	tr       Transport
	quorumTr QuorumGatherer
	keepOpen bool
	// remote is the transport's RemoteAssigner capability when it has
	// one: prepare and repair rounds then ship AssignSpec manifests to
	// remote workers instead of evaluating on the local pool.
	remote RemoteAssigner
}

// newEngine validates the problem geometry, selects the proof moduli,
// and builds the per-prime Reed–Solomon codes.
func newEngine(p Problem, opts Options) (*engine, error) {
	opts = opts.withDefaults()
	d := p.Degree()
	w := p.Width()
	if w <= 0 || d < 0 {
		return nil, fmt.Errorf("invalid geometry width=%d degree=%d", w, d)
	}
	e := d + 1 + 2*opts.FaultTolerance
	k := opts.Nodes
	if k > e {
		k = e // more nodes than points is pointless; trailing nodes would idle
	}
	if opts.MaxRepairRounds > 0 && opts.MaxErasures <= 0 {
		// A strict gather either hears every node or fails the run —
		// there is never a missing set to repair, so the combination is
		// a configuration mistake worth naming.
		return nil, fmt.Errorf("MaxRepairRounds=%d requires MaxErasures > 0: only erasure-tolerant gathers produce repairable missing nodes", opts.MaxRepairRounds)
	}
	minQ := p.MinModulus()
	if minQ < uint64(e)+1 {
		minQ = uint64(e) + 1
	}
	order := 1
	for order < 2*e {
		order <<= 1
	}
	// Geometry resolution goes through the (possibly nil) cache: a
	// Cluster's warm state makes repeated same-shape runs skip the prime
	// scan and code construction entirely.
	cached, err := opts.Geometry.choosePrimes(p.NumPrimes(), minQ, order)
	if err != nil {
		return nil, err
	}
	// Copy: the report and proof publish the slice to callers, and the
	// cached copy must stay immutable.
	primes := append([]uint64(nil), cached...)
	codes := make([]*rs.Code, len(primes))
	for pi, q := range primes {
		code, err := opts.Geometry.code(q, e, d)
		if err != nil {
			return nil, err
		}
		codes[pi] = code
	}
	obs := opts.Observer
	if obs == nil {
		obs = nopObserver{}
	}
	return &engine{
		p: p, opts: opts, w: w, d: d, e: e, k: k,
		planner:     NewSharedPlanner(p, opts.Plans, opts.PlanKey),
		primes:      primes,
		assign:      NewPointAssignment(e, k),
		codes:       codes,
		obs:         obs,
		chunkPoints: maxChunkPoints,
		report: &Report{
			Problem:        p.Name(),
			Nodes:          k,
			Width:          w,
			Degree:         d,
			CodeLength:     e,
			FaultTolerance: opts.FaultTolerance,
			Primes:         primes,
			ByzantineNodes: append([]int(nil), opts.Adversary.CorruptNodes()...),
			VerifyTrials:   opts.VerifyTrials,
		},
	}, nil
}

// Run executes the full Camelot protocol for the problem: distributed
// proof preparation on a bounded worker pool over opts.Nodes logical
// nodes, per-node Gao decoding with failed-node identification,
// cross-node agreement check, and randomized verification. When the
// decode fails with erasures beyond the Reed–Solomon budget and
// Options.MaxRepairRounds allows it, bounded repair rounds re-assign
// the missing nodes' point ranges to survivors and retry — turning
// delivery faults the budget cannot absorb into latency. It returns
// the decoded proof even when verification fails (callers inspect the
// error).
func Run(ctx context.Context, p Problem, opts Options) (*Proof, *Report, error) {
	en, err := newEngine(p, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", p.Name(), err)
	}
	return en.run(ctx)
}

// run drives a constructed engine through every stage; see Run.
func (en *engine) run(ctx context.Context) (*Proof, *Report, error) {
	p := en.p
	// The engine owns the transport for the whole run — gathers in
	// repair-capable runs leave it open between rounds.
	defer en.closeTransport()
	en.pointsLeft.Store(int64(en.e * len(en.primes)))
	en.obs.Geometry(en.e*len(en.primes), en.k)
	prep, err := en.stagePrepare(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", p.Name(), err)
	}
	proof, err := en.stageDecode(ctx, prep)
	for round := 1; err != nil && en.canRepair(err, prep, round); round++ {
		if rerr := en.stageRepair(ctx, prep, round); rerr != nil {
			return nil, nil, fmt.Errorf("core: %s: repair round %d: %w", p.Name(), round, rerr)
		}
		proof, err = en.stageDecode(ctx, prep)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", p.Name(), err)
	}
	if err := en.stageVerify(ctx, proof); err != nil {
		return proof, en.report, fmt.Errorf("core: %s: %w", p.Name(), err)
	}
	return proof, en.report, nil
}

// creditPoints reports n newly evaluated (point, prime) units to the
// observer, clamped to the remaining geometry budget. A repair round
// recomputes ranges that round 0 may already have credited (local
// evaluation completes even when the broadcast is lost, and a straggler
// cut loose mid-range credited part of it), so without the clamp a
// healed run would report PointsDone > PointsTotal.
func (en *engine) creditPoints(n int) {
	if n <= 0 {
		return
	}
	for {
		left := en.pointsLeft.Load()
		if left <= 0 {
			return
		}
		take := int64(n)
		if take > left {
			take = left
		}
		if en.pointsLeft.CompareAndSwap(left, left-take) {
			en.obs.PointsDone(int(take))
			return
		}
	}
}

// canRepair decides whether a failed decode is worth another gather
// round: repair must be enabled with rounds left, the failure must be
// the typed beyond-budget refusal (anything else — cancellation, a
// decoder bug — repair cannot fix), and there must be both missing
// nodes to recompute and survivors to recompute them.
func (en *engine) canRepair(err error, prep *prepared, round int) bool {
	if !(round <= en.opts.MaxRepairRounds && en.keepOpen &&
		errors.Is(err, rs.ErrDecodeFailure) && len(prep.missing) > 0) {
		return false
	}
	// Locally, a survivor must exist to sponsor the recompute. Remotely,
	// logical nodes and workers are different populations: even with
	// every logical node missing, any live worker can be re-assigned the
	// ranges (AssignRanges fails if none is).
	return en.remote != nil || len(prep.missing) < en.k
}

// closeTransport ends the transport's world for transports that have
// one to end (sharded relays, a remote run's coordinator).
// Repair-capable gathers run with GatherSpec.KeepOpen, so teardown is
// the engine's job; for everything else this is an idempotent no-op.
func (en *engine) closeTransport() {
	if c, ok := en.tr.(interface{ Close() }); ok {
		c.Close()
	}
}

// runTasks executes indexed tasks on the session pool when one is
// configured (Cluster runs) and on a per-run scheduler otherwise. On
// the pool the run's Priority becomes its scheduling weight, so a
// high-priority tenant's tasks interleave more densely than a default
// run's.
func (en *engine) runTasks(ctx context.Context, n int, task func(id int) error) error {
	if en.opts.Pool != nil {
		return en.opts.Pool.RunWeighted(ctx, n, en.opts.Priority, task)
	}
	return newScheduler(en.opts.MaxParallelism).run(ctx, n, task)
}

// execWidth returns the execution parallelism available to this run —
// the knob that decides whether owned point ranges are worth
// sub-chunking.
func (en *engine) execWidth() int {
	if en.opts.Pool != nil {
		return en.opts.Pool.Width()
	}
	if en.opts.MaxParallelism > 0 {
		return en.opts.MaxParallelism
	}
	return runtime.GOMAXPROCS(0)
}

// prepChunk is one prepare-stage task: a slice of one owned point range
// for one prime. node indexes the round's prepNode slice (which in
// round 0 coincides with the owner's id; in a repair round it is just
// the position among the ranges being repaired).
type prepChunk struct {
	node, prime int
	lo, hi      int
}

// prepNode tracks one node's in-flight message across its chunks.
type prepNode struct {
	msg       NodeShares
	remaining atomic.Int32
	elapsedNS atomic.Int64
}

// prepared is the prepare stage's product: the delivered share
// messages ordered by node id, plus the ids whose broadcasts never
// arrived (their coordinates become Reed–Solomon erasures in the
// decode stage).
type prepared struct {
	shares  []NodeShares
	missing []int
}

// stagePrepare is protocol step 1 (distributed encoded proof
// preparation): every node evaluates its owned block of the codeword for
// every prime and coordinate and broadcasts it as one message over the
// transport; the collector gathers all K messages.
//
// The work unit is a (node, prime, sub-range) chunk rather than a whole
// node: when the pool is wider than the node count — a single-node run
// on a many-core box, say — idle workers take sub-chunks of the same
// node's range, so K bounds the paper's work *split* but never the
// machine's parallelism. Chunk boundaries cannot change results: every
// point is evaluated independently and written to its own slot (and the
// plan.Plan contract requires block results to match point-wise
// evaluation bit for bit).
// In quorum mode (Options.MaxErasures > 0) the gather tolerates
// delivery faults: it returns once K-MaxErasures distinct senders have
// been heard or the grace timer fires, stragglers are cut loose (their
// pending work is cancelled — it could only produce messages the run
// has already given up on), and the missing node ids are passed to the
// decode stage as erasures instead of failing the run.
func (en *engine) stagePrepare(ctx context.Context) (*prepared, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	en.obs.StageStart(StagePrepare)
	en.tr = en.opts.NewTransport(en.k)
	quorumMode := en.opts.MaxErasures > 0
	if quorumMode {
		var ok bool
		if en.quorumTr, ok = en.tr.(QuorumGatherer); !ok {
			return nil, fmt.Errorf("%w: MaxErasures=%d needs one, %T is not",
				ErrQuorumUnsupported, en.opts.MaxErasures, en.tr)
		}
	}
	// Repair rounds re-gather over this same transport instance, so
	// gathers must not tear it down on return.
	en.keepOpen = quorumMode && en.opts.MaxRepairRounds > 0
	// A transport that can assign work to remote workers flips the
	// engine into remote mode: manifests go out instead of local
	// evaluation, and frames stream back through the same gather.
	en.remote, _ = en.tr.(RemoteAssigner)
	spec := GatherSpec{
		K:        en.k,
		Quorum:   en.k - en.opts.MaxErasures,
		Grace:    en.opts.GatherGrace,
		Round:    0,
		KeepOpen: en.keepOpen,
	}
	computeStart := time.Now()
	var msgs []NodeShares
	var err error
	if en.remote != nil {
		specs := make([]AssignSpec, 0, en.k)
		for id := 0; id < en.k; id++ {
			lo, hi := en.assign.Range(id)
			specs = append(specs, AssignSpec{
				Owner: id, Round: 0, Lo: lo, Hi: hi,
				Width: en.w, Primes: en.primes,
			})
		}
		msgs, err = en.runRemoteRound(ctx, specs, spec, quorumMode)
	} else {
		parts := 1
		if w := en.execWidth(); w > en.k {
			parts = (w + en.k - 1) / en.k
		}
		nodes := make([]*prepNode, 0, en.k)
		var chunks []prepChunk
		for id := 0; id < en.k; id++ {
			lo, hi := en.assign.Range(id)
			var st *prepNode
			st, chunks = en.buildShareTasks(len(nodes), id, id, 0, lo, hi, parts, chunks)
			nodes = append(nodes, st)
		}
		msgs, err = en.runRound(ctx, nodes, chunks, spec, quorumMode)
	}
	if err != nil {
		return nil, err
	}
	if quorumMode {
		// A node that reports an in-band failure contributed no shares,
		// which is exactly the delivery-fault axis a quorum run absorbs:
		// drop its report and let its coordinates erase within budget
		// (a duplicate delivery carrying real shares still wins). This
		// also keeps a forged error frame from an untrusted network peer
		// from failing the run — in strict mode it still does, loudly,
		// via collectShares.
		kept := msgs[:0]
		for _, m := range msgs {
			if m.Err != nil && m.ID >= 0 && m.ID < en.k {
				continue
			}
			kept = append(kept, m)
		}
		msgs = kept
	}
	delivered, missing, err := collectShares(msgs, en.k, 0)
	if err != nil {
		return nil, err
	}
	// Shape guard: a message that crossed an untrusted transport (a
	// remote worker's frame) may claim any geometry the codec's generic
	// bounds allow, and the decoders index shares by the run's. A
	// malformed message must never panic a decoder — it becomes its
	// sender's delivery fault where the run tolerates those, and a typed
	// refusal where it does not.
	valid := delivered[:0]
	var malformed []int
	for _, m := range delivered {
		if en.shareShapeOK(m) {
			valid = append(valid, m)
		} else {
			malformed = append(malformed, m.ID)
		}
	}
	if len(malformed) > 0 {
		if !quorumMode {
			return nil, fmt.Errorf("transport delivered malformed shares from node %d; tolerate delivery faults with MaxErasures", malformed[0])
		}
		delivered = valid
		missing = append(missing, malformed...)
		sort.Ints(missing)
	}
	if len(missing) > 0 && !quorumMode {
		if len(msgs) > len(delivered) {
			// The strict gather counts raw messages, so duplicated
			// deliveries consumed the slots of a sender still in
			// flight — name the real defect, not a phantom loss.
			return nil, fmt.Errorf("transport duplicated deliveries (%d messages from %d senders) while node %d went unheard; tolerate delivery faults with MaxErasures",
				len(msgs), len(delivered), missing[0])
		}
		return nil, fmt.Errorf("transport delivered no message from node %d", missing[0])
	}
	en.report.MissingNodes = missing
	en.obs.DeliveryFaults(len(missing))
	for _, m := range delivered {
		en.report.TotalNodeCompute += m.Elapsed
		if m.Elapsed > en.report.MaxNodeCompute {
			en.report.MaxNodeCompute = m.Elapsed
		}
		if en.remote != nil {
			// Remote evaluation reports no per-chunk progress; credit a
			// range's points (per prime, matching Observer.Geometry's
			// units) when its frame lands.
			en.creditPoints((m.Hi - m.Lo) * len(en.primes))
		}
	}
	en.report.ComputeWall = time.Since(computeStart)
	return &prepared{shares: delivered, missing: missing}, nil
}

// maxChunkPoints caps the points in one prepare task. A task holds its
// worker until the whole sub-range is evaluated, and the pool may be
// shared across runs (the proof service), so an owned range evaluated as
// one task would make every other run's work queue behind it. Smaller
// caps cost block-evaluation calls, each with its own per-block set-up.
const maxChunkPoints = 128

// buildShareTasks allocates the in-flight message for one owned point
// range [lo, hi) — owner's id on the message, sponsor as the physical
// sender, round tagging the gather it belongs to — and appends its
// (prime, sub-range) chunk tasks: at least parts per prime, and none
// longer than en.chunkPoints. idx is the message's position in the
// round's prepNode slice (what prepChunk.node indexes).
func (en *engine) buildShareTasks(idx, owner, sponsor, round, lo, hi, parts int, chunks []prepChunk) (*prepNode, []prepChunk) {
	parts = max(parts, (hi-lo+en.chunkPoints-1)/en.chunkPoints)
	st := &prepNode{msg: NodeShares{
		ID: owner, From: sponsor, Round: round,
		Lo: lo, Hi: hi,
		Vals: make([][][]uint64, len(en.primes)),
	}}
	n := 0
	for pi := range en.primes {
		st.msg.Vals[pi] = make([][]uint64, en.w)
		for c := 0; c < en.w; c++ {
			st.msg.Vals[pi][c] = make([]uint64, hi-lo)
		}
		for _, cut := range cutRange(lo, hi, parts) {
			chunks = append(chunks, prepChunk{node: idx, prime: pi, lo: cut[0], hi: cut[1]})
			n++
		}
	}
	st.remaining.Store(int32(n))
	return st, chunks
}

// runRound drives one send/gather round over the run's transport: the
// worker pool evaluates the chunks, each completed message is broadcast,
// and the collector gathers under spec. Each round gets fresh send and
// gather contexts scoped to this call — cancelling the round's senders
// on return is what abandons its still-pending deliveries (a lossy
// transport's delayed copies, say) so they cannot leak into a later
// round's gather; the round filter in the quorum loop is the second
// line of defense.
func (en *engine) runRound(ctx context.Context, nodes []*prepNode, chunks []prepChunk, spec GatherSpec, quorumMode bool) ([]NodeShares, error) {
	// Failure on either side of the transport must cancel the other:
	// a pool (Send) failure cancels the gather so the collector cannot
	// wait forever on messages that will never arrive, and a gather
	// failure cancels the senders so a bounded transport cannot leave
	// them blocked on a dead collector.
	sendCtx, cancelSend := context.WithCancel(ctx)
	defer cancelSend()
	gatherCtx, cancelGather := context.WithCancel(ctx)
	defer cancelGather()
	poolDone := make(chan error, 1)
	// sendsDone tells a quorum gather that no further Send can occur,
	// so a total-loss network ends in one grace period instead of
	// waiting out the caller's context.
	sendsDone := make(chan struct{})
	spec.SendsDone = sendsDone
	go func() {
		defer close(sendsDone)
		err := en.runTasks(sendCtx, len(chunks), func(ti int) error {
			chk := chunks[ti]
			st := nodes[chk.node]
			start := time.Now()
			err := evaluateRangeInto(sendCtx, en.planner, en.primes[chk.prime], chk.lo, chk.hi, en.w,
				st.msg.Vals[chk.prime], st.msg.Lo, en.opts.BlockSize)
			st.elapsedNS.Add(int64(time.Since(start)))
			if err != nil {
				return fmt.Errorf("node %d: %w", st.msg.Origin(), err)
			}
			en.creditPoints(chk.hi - chk.lo)
			if st.remaining.Add(-1) == 0 {
				// Last chunk of this message: it is complete (every
				// other chunk's write happened-before the counter
				// reached zero), broadcast it.
				st.msg.Elapsed = time.Duration(st.elapsedNS.Load())
				return en.tr.Send(sendCtx, st.msg)
			}
			return nil
		})
		if err == nil {
			// A transport may still hold accepted deliveries in flight
			// (injected delays): conclude them before announcing
			// SendsDone, and surface an asynchronous delivery failure
			// exactly as a Send returning it would have. The drain
			// covers this round's sends — repair rounds included —
			// because it runs inside every round.
			if d, ok := en.tr.(SendDrainer); ok {
				err = d.DrainSends(sendCtx)
			}
		}
		if err != nil {
			cancelGather()
		}
		poolDone <- err
	}()
	var msgs []NodeShares
	var gatherErr error
	if quorumMode {
		msgs, gatherErr = en.quorumTr.GatherQuorum(gatherCtx, spec)
	} else {
		msgs, gatherErr = en.tr.Gather(gatherCtx, spec.K)
	}
	// Either outcome ends the round's senders: after a failure the
	// cancellation frees workers stuck on a dead collector; after a
	// success any straggler still computing or sending is cut loose
	// (strict gathers have heard every node by now, quorum gathers have
	// decided to erase the rest).
	cancelSend()
	poolErr := <-poolDone
	// Prefer the root cause over the cancellation it triggered on the
	// other side.
	if poolErr != nil && !errors.Is(poolErr, context.Canceled) {
		return nil, poolErr
	}
	if gatherErr != nil {
		return nil, gatherErr
	}
	return msgs, nil
}

// runRemoteRound drives one assign/gather round in remote mode: the
// transport ships each spec's manifest to a live worker and the
// collector gathers the frames streamed back. GatherSpec.SendsDone
// stays nil — the engine cannot see when remote workers finish sending,
// so a quorum gather's deadline discipline rests on the grace timer
// armed by arrivals; the coordinator turns worker faults into in-band
// Err frames, which are arrivals too, so a dying cluster still
// converges instead of waiting out ctx.
func (en *engine) runRemoteRound(ctx context.Context, specs []AssignSpec, spec GatherSpec, quorumMode bool) ([]NodeShares, error) {
	if err := en.remote.AssignRanges(ctx, specs); err != nil {
		return nil, err
	}
	if quorumMode {
		return en.quorumTr.GatherQuorum(ctx, spec)
	}
	return en.tr.Gather(ctx, spec.K)
}

// stageRepair is the self-healing gather: the decode stage has refused
// (erasures beyond the Reed–Solomon budget), but the missing nodes'
// point ranges are known, survivors are idle, and evaluation is
// deterministic in (q, x0) — so a survivor recomputes exactly the
// values the dead node would have sent, bit for bit. Each missing
// range becomes one message carrying the dead owner's id (what the
// decoders index by) sent by a sponsoring survivor (what the
// transport's link faults attach to), sponsors rotating across rounds
// so a round-robin neighbor with its own bad link does not doom every
// retry. Recovered messages join prep.shares; whatever is still
// missing stays erased for the decode retry to judge against the
// budget.
func (en *engine) stageRepair(ctx context.Context, prep *prepared, round int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	still := make(map[int]bool, len(prep.missing))
	for _, id := range prep.missing {
		still[id] = true
	}
	en.obs.RepairRound(round, append([]int(nil), prep.missing...))
	repairStart := time.Now()
	spec := GatherSpec{
		K: en.k,
		// The round is complete when every re-assigned range has been
		// heard; the grace timer hands over a partial round (the decode
		// retry then judges what is still missing against the budget).
		Quorum:   len(prep.missing),
		Grace:    en.opts.GatherGrace,
		Round:    round,
		KeepOpen: true,
	}
	var msgs []NodeShares
	var err error
	if en.remote != nil {
		// Remotely there is no sponsor rotation to run here: the
		// coordinator re-routes each missing range to whichever worker
		// is live, which is the whole point of separating logical nodes
		// from physical workers.
		specs := make([]AssignSpec, 0, len(prep.missing))
		for _, id := range prep.missing {
			lo, hi := en.assign.Range(id)
			specs = append(specs, AssignSpec{
				Owner: id, Round: round, Lo: lo, Hi: hi,
				Width: en.w, Primes: en.primes,
			})
		}
		msgs, err = en.runRemoteRound(ctx, specs, spec, true)
	} else {
		survivors := make([]int, 0, en.k-len(prep.missing))
		for id := 0; id < en.k; id++ {
			if !still[id] {
				survivors = append(survivors, id)
			}
		}
		if len(survivors) == 0 {
			// canRepair refuses this; keep the invariant locally too.
			return fmt.Errorf("no surviving nodes to repair %d missing ranges", len(prep.missing))
		}
		parts := 1
		if w := en.execWidth(); w > len(prep.missing) {
			parts = (w + len(prep.missing) - 1) / len(prep.missing)
		}
		nodes := make([]*prepNode, 0, len(prep.missing))
		var chunks []prepChunk
		for i, id := range prep.missing {
			sponsor := survivors[(i+round-1)%len(survivors)]
			lo, hi := en.assign.Range(id)
			var st *prepNode
			st, chunks = en.buildShareTasks(len(nodes), id, sponsor, round, lo, hi, parts, chunks)
			nodes = append(nodes, st)
		}
		msgs, err = en.runRound(ctx, nodes, chunks, spec, true)
	}
	if err != nil {
		return err
	}
	// Merge under the same quorum-mode rules as round 0: in-band Err
	// messages are their sender's delivery fault, duplicates dedup by
	// (node, round), and a message must both belong to a range this
	// round re-assigned and match the run geometry to count.
	kept := msgs[:0]
	for _, m := range msgs {
		if m.Err != nil && m.ID >= 0 && m.ID < en.k {
			continue
		}
		kept = append(kept, m)
	}
	delivered, _, err := collectShares(kept, en.k, round)
	if err != nil {
		return err
	}
	var repaired []int
	for _, m := range delivered {
		if !still[m.ID] || !en.shareShapeOK(m) {
			continue
		}
		still[m.ID] = false
		prep.shares = append(prep.shares, m)
		repaired = append(repaired, m.ID)
		en.report.TotalNodeCompute += m.Elapsed
		if m.Elapsed > en.report.MaxNodeCompute {
			en.report.MaxNodeCompute = m.Elapsed
		}
		if en.remote != nil {
			en.creditPoints((m.Hi - m.Lo) * len(en.primes))
		}
	}
	remaining := prep.missing[:0]
	for _, id := range prep.missing {
		if still[id] {
			remaining = append(remaining, id)
		}
	}
	prep.missing = remaining
	en.report.MissingNodes = append([]int(nil), remaining...)
	en.report.RepairedNodes = append(en.report.RepairedNodes, repaired...)
	sort.Ints(en.report.RepairedNodes)
	en.report.RepairRounds = round
	en.report.ComputeWall += time.Since(repairStart)
	return nil
}

// shareShapeOK reports whether a delivered message's claimed geometry
// matches what this run assigned its sender — the precondition every
// decoder's indexing relies on.
func (en *engine) shareShapeOK(m NodeShares) bool {
	lo, hi := en.assign.Range(m.ID)
	if m.Lo != lo || m.Hi != hi || len(m.Vals) != len(en.primes) {
		return false
	}
	for _, coords := range m.Vals {
		if len(coords) != en.w {
			return false
		}
		for _, vals := range coords {
			if len(vals) != hi-lo {
				return false
			}
		}
	}
	return true
}

// erasedPoints expands missing node ids into the evaluation-point
// indices they owned — the erasure set every decoder passes to the
// Reed–Solomon decoder.
func (en *engine) erasedPoints(missing []int) []int {
	var out []int
	for _, id := range missing {
		lo, hi := en.assign.Range(id)
		for x := lo; x < hi; x++ {
			out = append(out, x)
		}
	}
	return out
}

// cutRange splits [lo, hi) into at most parts non-empty, contiguous,
// near-equal pieces, in order.
func cutRange(lo, hi, parts int) [][2]int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		return [][2]int{{lo, hi}}
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		a := lo + i*n/parts
		b := lo + (i+1)*n/parts
		if a < b {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// stageDecode is protocol step 2 (error correction during preparation):
// every honest node assembles its own received word — the adversary may
// equivocate per recipient — decodes it independently on the worker
// pool, and the decoded proofs are checked for agreement. Nodes whose
// broadcasts the transport lost contribute no symbols: their
// coordinates are decoded as erasures, which cost half an error each in
// the Reed–Solomon budget and are never counted as suspects.
func (en *engine) stageDecode(ctx context.Context, prep *prepared) (*Proof, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	en.obs.StageStart(StageDecode)
	honest := honestNodes(en.k, en.opts.Adversary)
	if len(honest) == 0 {
		return nil, ErrNoHonestNodes
	}
	decoders := honest
	if en.opts.DecodingNodes > 0 && en.opts.DecodingNodes < len(decoders) {
		decoders = decoders[:en.opts.DecodingNodes]
	}
	// Accumulate on every path: a repair-capable run decodes once per
	// round, its first attempt fails beyond budget, and the report's
	// decode wall is the run's total, failed attempts included.
	decodeStart := time.Now()
	defer func() { en.report.DecodeWall += time.Since(decodeStart) }()
	// One erasure plan per prime, shared read-only by every decoder:
	// the erasure set is a property of the gather, not of any received
	// word, and the plan's interpolation context (subproduct tree and
	// barycentric weights over the surviving points) is work every word
	// would otherwise repeat. An undecodable erasure set fails here.
	erased := en.erasedPoints(prep.missing)
	plans := make([]*rs.ErasurePlan, len(en.codes))
	for pi, code := range en.codes {
		plan, err := code.ErasurePlan(erased)
		if err != nil {
			return nil, fmt.Errorf("prime %d: %w", en.primes[pi], err)
		}
		plans[pi] = plan
	}

	results := make([]*decodeResult, len(decoders))
	// Suspects merge incrementally as decoders finish so Status() can
	// report a live count mid-stage.
	var mu sync.Mutex
	suspects := map[int]bool{}
	err := en.runTasks(ctx, len(decoders), func(di int) error {
		recipient := decoders[di]
		res, err := decodeAsNode(ctx, recipient, en.primes, plans, prep.shares, en.assign, en.opts.Adversary, en.w, en.e)
		if err != nil {
			return fmt.Errorf("node %d decoding: %w", recipient, err)
		}
		results[di] = res
		mu.Lock()
		for nid := range res.suspects {
			suspects[nid] = true
		}
		n := len(suspects)
		mu.Unlock()
		en.obs.SuspectsFound(n)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Agreement: all decoders must have recovered the same proof.
	first := results[0]
	for _, res := range results[1:] {
		if !first.sameProof(res) {
			return nil, ErrProofDisagreement
		}
	}
	for _, res := range results {
		if res.maxErrors > en.report.CorruptedShares {
			en.report.CorruptedShares = res.maxErrors
		}
	}
	en.report.SuspectNodes = sortedKeys(suspects)

	proof := &Proof{
		Primes: en.primes,
		Degree: en.d,
		Width:  en.w,
		Points: rs.ConsecutivePoints(en.e),
		Coeffs: first.coeffs,
		Evals:  first.evals,
	}
	en.report.ProofSymbols = proof.Size()
	return proof, nil
}

// stageVerify is protocol step 3 (independent verification): the
// randomized spot check of the decoded proof against the input.
func (en *engine) stageVerify(ctx context.Context, proof *Proof) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	en.obs.StageStart(StageVerify)
	verifyStart := time.Now()
	ok, err := verifyProof(ctx, en.p, proof, en.opts.VerifyTrials, en.opts.Seed)
	if err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	en.report.VerifyPerTrial = time.Since(verifyStart) / time.Duration(en.opts.VerifyTrials)
	en.report.Verified = ok
	if !ok {
		return ErrVerificationFailed
	}
	return nil
}
