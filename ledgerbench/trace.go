package main

import (
	"context"
	"encoding/binary"
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vfps/internal/transport"
)

// Span kinds: the three boundaries the benchmark wraps from outside the
// program.
const (
	kindSelect = iota // one whole selection, on the leader
	kindCall          // caller side of one RPC: transport plus callee
	kindServe         // callee side of one RPC: the role's handler
)

// span is one recorded interval. parent is the span that caused it: the
// selection for the leader's calls, the caller-side span for a handler, and
// the enclosing handler for calls a serving role makes.
type span struct {
	id, parent uint64
	kind       int
	role       string // role that ran the interval: leader, aggserver, party/<i>, keyserver
	method     string // RPC method (kindCall, kindServe)
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run drains them. A nil tracer
// leaves every wrapper a pass-through, which is the untraced wiring.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// drain returns the spans recorded so far and forgets them.
func (t *tracer) drain() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

type parentKey struct{}

func withParent(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(parentKey{}).(uint64)
	return id
}

// A traced request carries the caller-side span ID in front of the program's
// own bytes, so the callee's handler span can name its cause across a real
// socket. The marker differs from the wire envelope's first byte.
const (
	tagMarker = 0xb7
	tagLen    = 9
)

var errUntagged = errors.New("ledgerbench: request without a call tag reached a traced handler")

// tracedCaller wraps the transport.Caller one role calls its peers through.
type tracedCaller struct {
	next transport.Caller
	role string
	t    *tracer
}

// caller wraps c for role; on a nil tracer it returns c unchanged.
func (t *tracer) caller(c transport.Caller, role string) transport.Caller {
	if t == nil {
		return c
	}
	return &tracedCaller{next: c, role: role, t: t}
}

func (c *tracedCaller) Call(ctx context.Context, peer, method string, req []byte) ([]byte, error) {
	id := c.t.newID()
	tagged := make([]byte, tagLen+len(req))
	tagged[0] = tagMarker
	binary.BigEndian.PutUint64(tagged[1:tagLen], id)
	copy(tagged[tagLen:], req)
	start := c.t.now()
	resp, err := c.next.Call(ctx, peer, method, tagged)
	c.t.record(span{id: id, parent: parentOf(ctx), kind: kindCall, role: c.role, method: method, start: start, end: c.t.now()})
	return resp, err
}

// handler wraps the transport.Handler a role serves with; on a nil tracer it
// returns h unchanged.
func (t *tracer) handler(role string, h transport.Handler) transport.Handler {
	if t == nil {
		return h
	}
	return func(ctx context.Context, method string, req []byte) ([]byte, error) {
		if len(req) < tagLen || req[0] != tagMarker {
			return nil, errUntagged
		}
		cause := binary.BigEndian.Uint64(req[1:tagLen])
		id := t.newID()
		start := t.now()
		resp, err := h(withParent(ctx, id), method, req[tagLen:])
		t.record(span{id: id, parent: cause, kind: kindServe, role: role, method: method, start: start, end: t.now()})
		return resp, err
	}
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by at least one interval, clipped to
// [lo, hi].
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// Per-method buckets of the ledger. Protocol methods keep their own bucket;
// version negotiation and the counter RPCs core.Select issues around the
// similarity phase share "meta".
var (
	partyMethods = []string{"rankingBatch", "encryptAll", "encryptCandidates", "encryptRankScore", "neighborSum", "meta"}
	aggMethods   = []string{"collectAll", "faginCollect", "aggregateCandidates", "aggregateFrontier", "meta"}
)

func methodBucket(method string) string {
	for _, prefix := range []string{"party.", "agg."} {
		if m, ok := strings.CutPrefix(method, prefix); ok {
			return m
		}
	}
	return "meta"
}

// methodStat sums one role class's handler time for one method bucket.
type methodStat struct {
	secs  float64
	calls int
}

// ledger accumulates the per-layer time of traced selections. Every field
// is a sum over selections; report divides by the selection count.
type ledger struct {
	selections int
	wall       float64 // selection wall clock
	leaderWait float64 // union of the leader's outgoing calls
	aggBusy    float64 // aggregation-server handler time
	aggWait    float64 // union of its outgoing calls inside each handler
	partyBusy  float64 // sum of participant handler time
	partySpan  float64 // time at least one participant handler runs
	calls      int     // caller-side RPCs with a matched handler
	overhead   float64 // caller-side time minus callee handler time
	rttsUs     []float64
	party      map[string]*methodStat
	agg        map[string]*methodStat
}

func newLedger() *ledger {
	l := &ledger{party: map[string]*methodStat{}, agg: map[string]*methodStat{}}
	for _, m := range partyMethods {
		l.party[m] = &methodStat{}
	}
	for _, m := range aggMethods {
		l.agg[m] = &methodStat{}
	}
	return l
}

// add folds the spans of one traced selection into the ledger. The spans
// must hold exactly one kindSelect span.
func (l *ledger) add(spans []span) error {
	var sel *span
	calls := map[uint64]span{}
	children := map[uint64][]interval{} // handler id -> its outgoing calls
	var leaderCalls, partyIvs []interval
	for i := range spans {
		s := spans[i]
		switch s.kind {
		case kindSelect:
			if sel != nil {
				return errors.New("ledgerbench: two selection spans in one trace")
			}
			sel = &spans[i]
		case kindCall:
			calls[s.id] = s
			if s.role == "leader" {
				leaderCalls = append(leaderCalls, interval{s.start, s.end})
			} else {
				children[s.parent] = append(children[s.parent], interval{s.start, s.end})
			}
		}
	}
	if sel == nil {
		return errors.New("ledgerbench: trace holds no selection span")
	}
	for _, s := range spans {
		if s.kind != kindServe {
			continue
		}
		d := s.dur().Seconds()
		if c, ok := calls[s.parent]; ok {
			l.calls++
			gap := (c.dur() - s.dur()).Seconds()
			l.overhead += gap
			l.rttsUs = append(l.rttsUs, gap*1e6)
		}
		bucket := methodBucket(s.method)
		switch {
		case s.role == "aggserver":
			l.aggBusy += d
			l.aggWait += unionLen(children[s.id], s.start, s.end).Seconds()
			if st, ok := l.agg[bucket]; ok {
				st.secs += d
				st.calls++
			}
		case strings.HasPrefix(s.role, "party/"):
			l.partyBusy += d
			partyIvs = append(partyIvs, interval{s.start, s.end})
			if st, ok := l.party[bucket]; ok {
				st.secs += d
				st.calls++
			}
		}
	}
	l.selections++
	l.wall += sel.dur().Seconds()
	l.leaderWait += unionLen(leaderCalls, sel.start, sel.end).Seconds()
	l.partySpan += unionLen(partyIvs, sel.start, sel.end).Seconds()
	return nil
}
