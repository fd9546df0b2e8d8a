package main

// Spans recorded from outside the program: around calls into the
// camelot session and service APIs, and in decorators on the two public
// seams every run passes through — core.CompiledProblem/plan.Plan for
// evaluation, core.Transport for share traffic. The decorators forward
// every capability the engine probes for, so a traced run takes the
// same code path as an untraced one.

import (
	"cmp"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"camelot/internal/core"
	"camelot/internal/ff"
	"camelot/internal/plan"
)

// span is one timed call. Spans of one request share req; parent is the
// id of the span that caused this one (0 for a root). n carries the
// span's work count where it has one (points evaluated).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	id, parent int64
	req        int64
	n          int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// maxSpans bounds the tracer's memory; later spans are counted, not kept.
const maxSpans = 200_000

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths can call it unconditionally.
type tracer struct {
	epoch   time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID allocates a span id, so a parent can be named before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a span that started at start and ends now. A zero id
// allocates one.
func (t *tracer) record(name string, id, parent, req int64, start time.Time, n int64) {
	t.recordAt(name, id, parent, req, start, time.Now(), n)
}

// recordAt stores a span with explicit bounds.
func (t *tracer) recordAt(name string, id, parent, req int64, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), id: id, parent: parent, req: req, n: n}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// byReq groups the spans called name by request id.
func (t *tracer) byReq(name string) map[int64][]span {
	out := map[int64][]span{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name {
			out[s.req] = append(out[s.req], s)
		}
	}
	return out
}

// durations returns the durations of every span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// covered returns how much of the time line the spans cover: their
// union, so parallel spans are not counted twice.
func covered(spans []span) time.Duration {
	s := slices.Clone(spans)
	slices.SortFunc(s, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	var total, end time.Duration
	for _, x := range s {
		if x.end <= end {
			continue
		}
		if x.start > end {
			total += x.dur()
		} else {
			total += x.end - end
		}
		end = x.end
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, one track per request), the format the program's own tracer
// is meant to share.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int64            `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur()), Pid: 1, Tid: s.req,
			Args: map[string]int64{"id": s.id, "parent": s.parent, "req": s.req, "n": s.n},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedProblem decorates a compiled problem so every plan it compiles
// is timed, and so is every block the engine evaluates through it.
type tracedProblem struct {
	core.CompiledProblem
	tr          *tracer
	req, parent int64
}

func (p tracedProblem) Compile(f ff.Field) (plan.Plan, error) {
	start := time.Now()
	pl, err := p.CompiledProblem.Compile(f)
	p.tr.record("plan.compile", 0, p.parent, p.req, start, 0)
	if err != nil {
		return nil, err
	}
	return tracedPlan{inner: pl, tr: p.tr, req: p.req, parent: p.parent}, nil
}

type tracedPlan struct {
	inner       plan.Plan
	tr          *tracer
	req, parent int64
}

func (p tracedPlan) EvaluateBlock(xs []uint64) ([][]uint64, error) {
	start := time.Now()
	rows, err := p.inner.EvaluateBlock(xs)
	p.tr.record("plan.evaluate_block", 0, p.parent, p.req, start, int64(len(xs)))
	return rows, err
}

// runTag names the request a run's transport belongs to. A negative req
// marks runs the benchmark cannot attribute to one request (the proof
// service starts them); each gets an id of its own.
type runTag struct{ req, parent int64 }

// tracedFactory builds the cluster's transports: plain while no tag is
// set, decorated while one is. Closed loops set the tag before each
// traced submission; serve-mix sets it for the traced half of its
// window.
type tracedFactory struct {
	tr    *tracer
	inner core.TransportFactory
	cur   atomic.Pointer[runTag]
	runs  atomic.Int64
}

// unattributedBase offsets the ids of runs not tied to one request, so
// they never collide with request ids.
const unattributedBase = 1 << 40

func (f *tracedFactory) build(k int) core.Transport {
	inner := f.inner(k)
	tag := f.cur.Load()
	if tag == nil {
		return inner
	}
	t := *tag
	if t.req < 0 {
		t.req = unattributedBase + f.runs.Add(1)
	}
	return &tracedTransport{inner: inner, tr: f.tr, tag: t}
}

// tracedTransport times share broadcasts and gathers. It forwards the
// optional capabilities (quorum gather, send drain, close) the engine
// probes for, and deliberately not RemoteAssigner: no workload runs
// remote workers.
type tracedTransport struct {
	inner core.Transport
	tr    *tracer
	tag   runTag
}

func (t *tracedTransport) Send(ctx context.Context, m core.NodeShares) error {
	start := time.Now()
	err := t.inner.Send(ctx, m)
	t.tr.record("core.transport.send", 0, t.tag.parent, t.tag.req, start, 0)
	return err
}

func (t *tracedTransport) Gather(ctx context.Context, k int) ([]core.NodeShares, error) {
	start := time.Now()
	msgs, err := t.inner.Gather(ctx, k)
	t.tr.record("core.transport.gather", 0, t.tag.parent, t.tag.req, start, int64(len(msgs)))
	return msgs, err
}

func (t *tracedTransport) GatherQuorum(ctx context.Context, spec core.GatherSpec) ([]core.NodeShares, error) {
	qg, ok := t.inner.(core.QuorumGatherer)
	if !ok {
		return nil, core.ErrQuorumUnsupported
	}
	start := time.Now()
	msgs, err := qg.GatherQuorum(ctx, spec)
	t.tr.record("core.transport.gather", 0, t.tag.parent, t.tag.req, start, int64(len(msgs)))
	return msgs, err
}

func (t *tracedTransport) DrainSends(ctx context.Context) error {
	if d, ok := t.inner.(core.SendDrainer); ok {
		return d.DrainSends(ctx)
	}
	return nil
}

func (t *tracedTransport) Close() {
	if c, ok := t.inner.(interface{ Close() }); ok {
		c.Close()
	}
}
