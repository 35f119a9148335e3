package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"rcb/internal/httpwire"
)

// CloseReason says why the agent terminated a participant's session or
// refused a request. The paper's agent answers every such condition with a
// bare 403; carrying an explicit reason on the wire lets the snippet decide
// between rejoining (transient server-side conditions) and giving up
// (deliberate removal), and gives operators a taxonomy for counters.
type CloseReason int

const (
	// CloseNone means the session was not closed; the zero value never
	// appears on the wire.
	CloseNone CloseReason = iota
	// CloseLeave: the participant left voluntarily (or the host removed its
	// registration through the normal leave path). No rejoin.
	CloseLeave
	// CloseKicked: the host explicitly ejected the participant. No rejoin.
	CloseKicked
	// CloseSessionFull: admission refused — the session is at its
	// participant cap or the agent is shedding joins. Rejoin later.
	CloseSessionFull
	// CloseOvercommitted: the agent refused or closed the participant's
	// persistent channel to relieve resource pressure (shed ladder at
	// ShedInterval, channels disabled, a receiver mid-handover). Fall back
	// and re-upgrade later.
	CloseOvercommitted
	// CloseStaleReader: the participant's acknowledged version lagged the
	// document beyond the configured distance, or its parked poll exceeded
	// the maximum age. Rejoin triggers a full resync.
	CloseStaleReader
	// CloseAgentClosing: the agent itself is shutting down. Rejoin with
	// backoff — the host may restart.
	CloseAgentClosing
	// CloseMoved: the session migrated to another agent process. The
	// response carries the new address in RelocateHeader; the snippet
	// rejoins there on its normal backoff path.
	CloseMoved
	// CloseUnknown: the agent has no record of the participant (expired
	// state, restarted agent). Rejoin re-registers.
	CloseUnknown
)

var closeReasonNames = map[CloseReason]string{
	CloseLeave:         "LEAVE",
	CloseKicked:        "KICKED",
	CloseSessionFull:   "SESSION_FULL",
	CloseOvercommitted: "OVERCOMMITTED",
	CloseStaleReader:   "STALE_READER",
	CloseAgentClosing:  "AGENT_CLOSING",
	CloseMoved:         "MOVED",
	CloseUnknown:       "UNKNOWN",
}

// String returns the wire spelling of the reason ("" for CloseNone).
func (r CloseReason) String() string { return closeReasonNames[r] }

// ParseCloseReason maps a wire spelling back to the enum; unrecognized
// non-empty values come back as CloseUnknown so a newer agent's reasons
// still register as closures on an older snippet.
func ParseCloseReason(s string) CloseReason {
	if s == "" {
		return CloseNone
	}
	for r, name := range closeReasonNames {
		if s == name {
			return r
		}
	}
	return CloseUnknown
}

// Retryable reports whether a snippet may rejoin after this close reason.
// Only deliberate removals are final.
func (r CloseReason) Retryable() bool {
	switch r {
	case CloseLeave, CloseKicked:
		return false
	default:
		return true
	}
}

// StatusCode is the HTTP status a terminal response with this reason
// carries: 403 for "you are not (or no longer) a participant", 503 for
// "the agent cannot serve you right now".
func (r CloseReason) StatusCode() int {
	switch r {
	case CloseSessionFull, CloseOvercommitted, CloseAgentClosing, CloseMoved:
		return 503
	default:
		return 403
	}
}

// Wire fields of the close-reason protocol.
const (
	// CloseReasonHeader carries a CloseReason spelling on terminal
	// responses (and on the empty poll responses a closing agent uses to
	// complete parked polls).
	CloseReasonHeader = "Rcb-Close-Reason"
	// RetryAfterHeader carries a server-assigned retry interval in
	// milliseconds; the snippet honors it before its next poll.
	RetryAfterHeader = "Rcb-Retry-After"
	// RelocateHeader accompanies a MOVED close reason and names the
	// listen address of the agent now serving the session.
	RelocateHeader = "Rcb-Relocate"
)

// ParseRetryAfter parses an Rcb-Retry-After value (milliseconds), zero
// when absent or malformed; a value past a Duration's range saturates
// rather than wraps. Every client of the poll protocol reads the hint
// through it.
func ParseRetryAfter(v string) time.Duration {
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0
	}
	if ms > int64(math.MaxInt64/time.Millisecond) {
		return math.MaxInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// CloseError is the error a protocol client surfaces when the agent
// terminated the exchange with an explicit reason.
type CloseError struct {
	Reason CloseReason
	Status int
	// Relocate is the Rcb-Relocate address a MOVED close named, if any.
	Relocate string
}

func (e *CloseError) Error() string {
	return fmt.Sprintf("rcb: session closed by agent: %s (status %d)", e.Reason, e.Status)
}

// BareStatusError is the error a protocol client surfaces when the agent
// refused an exchange without naming a close reason — an answer the
// close-reason protocol never sends to a well-formed client.
type BareStatusError struct {
	Status int
}

func (e *BareStatusError) Error() string {
	return fmt.Sprintf("rcb: agent returned %d with no close reason", e.Status)
}

// CloseReasonOf extracts the close reason from an error chain, or CloseNone
// when err carries no reason.
func CloseReasonOf(err error) CloseReason {
	var ce *CloseError
	if errors.As(err, &ce) {
		return ce.Reason
	}
	return CloseNone
}

// closeResponse builds a terminal response carrying reason alone.
func closeResponse(reason CloseReason) *httpwire.Response {
	return closeSignal{reason: reason}.response()
}
