package core

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rcb/internal/httpwire"
)

// The shed-load ladder. Under pressure the agent degrades service in
// explicit, observable steps instead of slowing down for everyone:
//
//	ShedNone        full service
//	ShedNoDelta     deltas off — every content poll gets the full snapshot;
//	                the delta-base ring and the per-pair diff cache are
//	                dropped on the climb and rotation skips until descent
//	                (deltas save bandwidth but hold up to ring-depth
//	                replaced builds and their diff scripts in memory)
//	ShedInterval    long-polls answer immediately with a server-assigned
//	                retry-after — parked-poll memory is bounded and the
//	                fleet degrades to the paper's interval polling
//	ShedRefuseJoins new connection requests are refused with SessionFull
//
// Each step keeps every existing participant syncing; the ladder climbs
// back down one step at a time once every enabled signal is below its low
// watermark (one-step hysteresis, so the ladder cannot oscillate inside a
// single evaluation window).
type ShedLevel int32

const (
	ShedNone ShedLevel = iota
	ShedNoDelta
	ShedInterval
	ShedRefuseJoins
)

func (l ShedLevel) String() string {
	switch l {
	case ShedNone:
		return "none"
	case ShedNoDelta:
		return "no-delta"
	case ShedInterval:
		return "interval"
	case ShedRefuseJoins:
		return "refuse-joins"
	default:
		return "shed(" + strconv.Itoa(int(l)) + ")"
	}
}

// ShedWatermarks configures the load signals that drive the ladder. A pair
// is enabled when its High value is positive; Low defaults to High/2 when
// left zero. The ladder climbs one step when any enabled signal reaches its
// high watermark and descends one step when every enabled signal is below
// its low watermark.
type ShedWatermarks struct {
	// ParkedHigh/ParkedLow watch the number of parked long-polls.
	ParkedHigh, ParkedLow int
	// OutboxHigh/OutboxLow watch the total queued mirror actions across
	// all participant outboxes.
	OutboxHigh, OutboxLow int
	// HeapHigh/HeapLow watch heap usage in bytes (runtime.MemStats
	// HeapAlloc, or the Agent.ReadHeap override).
	HeapHigh, HeapLow uint64
}

func (w ShedWatermarks) enabled() bool {
	return w.ParkedHigh > 0 || w.OutboxHigh > 0 || w.HeapHigh > 0
}

// low returns a low watermark, defaulting to high/2.
func lowMark[T int | uint64](low, high T) T {
	if low > 0 {
		return low
	}
	return high / 2
}

// ParseShedWatermarks parses the rcb-host flag syntax: comma-separated
// signal=high[/low] clauses, e.g. "parked=192/128,outbox=4096,heap=256M".
// Heap values accept K/M/G suffixes (binary). An empty string disables
// shedding.
func ParseShedWatermarks(s string) (ShedWatermarks, error) {
	var w ShedWatermarks
	if s == "" {
		return w, nil
	}
	for _, clause := range splitNonEmpty(s, ',') {
		name, vals, ok := cutByte(clause, '=')
		if !ok {
			return w, fmt.Errorf("shed watermark %q: want signal=high[/low]", clause)
		}
		highStr, lowStr, hasLow := cutByte(vals, '/')
		high, err := parseSize(highStr)
		if err != nil {
			return w, fmt.Errorf("shed watermark %q: %v", clause, err)
		}
		var low uint64
		if hasLow {
			if low, err = parseSize(lowStr); err != nil {
				return w, fmt.Errorf("shed watermark %q: %v", clause, err)
			}
		}
		switch name {
		case "parked":
			w.ParkedHigh, w.ParkedLow = int(high), int(low)
		case "outbox":
			w.OutboxHigh, w.OutboxLow = int(high), int(low)
		case "heap":
			w.HeapHigh, w.HeapLow = high, low
		default:
			return w, fmt.Errorf("shed watermark %q: unknown signal %q", clause, name)
		}
	}
	return w, nil
}

func splitNonEmpty(s string, sep byte) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != sep {
			i++
		}
		if part := s[:i]; part != "" {
			out = append(out, part)
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}

func cutByte(s string, sep byte) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// parseSize parses a decimal count with an optional binary K/M/G suffix.
func parseSize(s string) (uint64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	mult := uint64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm', 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g', 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// DefaultShedRetryAfter is the retry interval handed to clients when the
// ladder forces interval polling and Agent.ShedRetryAfter is zero.
const DefaultShedRetryAfter = 2 * time.Second

// shedState carries the ladder's mutable state, separate from the Agent's
// other lock domains.
type shedState struct {
	level    atomic.Int32
	mu       sync.Mutex // serializes EvaluateLoad transitions
	lastEval atomic.Int64

	respOnce sync.Once
	resp     *httpwire.Response
}

// ShedLevel reports the ladder's current step.
func (a *Agent) ShedLevel() ShedLevel { return ShedLevel(a.shed.level.Load()) }

// heapInUse reads the heap signal.
func (a *Agent) heapInUse() uint64 {
	if a.ReadHeap != nil {
		return a.ReadHeap()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// EvaluateLoad samples the load signals and moves the shed ladder at most
// one step, returning the level now in force. The serve path calls it
// rate-limited (maybeEvalLoad); tests and operators may call it directly.
func (a *Agent) EvaluateLoad() ShedLevel {
	w := a.Shed
	if !w.enabled() {
		return a.ShedLevel()
	}
	a.shed.mu.Lock()
	defer a.shed.mu.Unlock()

	// Persistent channels are per-client held state exactly like parked
	// long-polls — one socket, one goroutine pair, one delivery obligation —
	// so they weigh on the same signal and the ladder sees channel pressure.
	polls, chans := a.hub.counts()
	parked := polls + chans
	outbox := int(a.OutboxDepth())
	var heap uint64
	if w.HeapHigh > 0 {
		heap = a.heapInUse()
	}

	high := (w.ParkedHigh > 0 && parked >= w.ParkedHigh) ||
		(w.OutboxHigh > 0 && outbox >= w.OutboxHigh) ||
		(w.HeapHigh > 0 && heap >= w.HeapHigh)
	low := (w.ParkedHigh <= 0 || parked <= lowMark(w.ParkedLow, w.ParkedHigh)) &&
		(w.OutboxHigh <= 0 || outbox <= lowMark(w.OutboxLow, w.OutboxHigh)) &&
		(w.HeapHigh <= 0 || heap <= lowMark(w.HeapLow, w.HeapHigh))

	lvl := ShedLevel(a.shed.level.Load())
	switch {
	case high && lvl < ShedRefuseJoins:
		lvl++
		a.shed.level.Store(int32(lvl))
		if !a.deltasOn() {
			// The rung's whole point is freeing memory: drop the delta-base
			// ring and diff cache now rather than waiting for the next
			// rotation (which releases too while deltas are off).
			a.pipeline.release()
		}
		a.logf("rcb-agent: shed ladder up to %s (parked=%d outbox=%d heap=%d)", lvl, parked, outbox, heap)
	case !high && low && lvl > ShedNone:
		lvl--
		a.shed.level.Store(int32(lvl))
		a.logf("rcb-agent: shed ladder down to %s (parked=%d outbox=%d heap=%d)", lvl, parked, outbox, heap)
	}
	return lvl
}

// shedEvalInterval rate-limits load evaluation on the serve path.
const shedEvalInterval = 100 * time.Millisecond

// maybeEvalLoad runs EvaluateLoad at most once per shedEvalInterval; cheap
// enough for every poll and broadcast.
func (a *Agent) maybeEvalLoad() {
	if !a.Shed.enabled() {
		return
	}
	now := time.Now().UnixNano()
	last := a.shed.lastEval.Load()
	if now-last < int64(shedEvalInterval) {
		return
	}
	if a.shed.lastEval.CompareAndSwap(last, now) {
		a.EvaluateLoad()
	}
}

// shedRetryAfter resolves the retry interval for shed responses.
func (a *Agent) shedRetryAfter() time.Duration {
	if a.ShedRetryAfter > 0 {
		return a.ShedRetryAfter
	}
	return DefaultShedRetryAfter
}

// shedEmptyResponse is the empty poll response carrying the server-assigned
// retry-after hint, shared across every refused park (ShedRetryAfter must
// not change once serving).
func (a *Agent) shedEmptyResponse() *httpwire.Response {
	a.shed.respOnce.Do(func() {
		r := httpwire.NewResponse(200, "application/xml", nil)
		r.Header.Set(RetryAfterHeader, strconv.FormatInt(a.shedRetryAfter().Milliseconds(), 10))
		a.shed.resp = r
	})
	return a.shed.resp
}
