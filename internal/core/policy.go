package core

// Decision is a policy verdict on a participant action (paper §3.3). The
// paper's third verdict, asking the host to inspect and confirm an action,
// is not reproduced: no host interface here could list or approve one.
type Decision int

// Policy verdicts.
const (
	// Apply performs the action on the host browser immediately.
	Apply Decision = iota
	// Deny drops the action.
	Deny
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Apply:
		return "apply"
	case Deny:
		return "deny"
	}
	return "unknown"
}

// Policy decides what to do with each action a participant sends. The
// paper leaves policy specification application-dependent (§3.3); the two
// below cover its open and watch-only postures.
type Policy interface {
	Decide(participantID string, act Action) Decision
}

// PolicyFunc adapts a function to Policy.
type PolicyFunc func(participantID string, act Action) Decision

// Decide calls f.
func (f PolicyFunc) Decide(participantID string, act Action) Decision {
	return f(participantID, act)
}

// OpenPolicy applies every participant action immediately — the online
// co-shopping posture where "anyone in a co-browsing session [may] initiate
// browsing actions and navigate to new pages".
func OpenPolicy() Policy {
	return PolicyFunc(func(string, Action) Decision { return Apply })
}

// ReadOnlyPolicy lets participants watch but not act — the online training
// posture. Pointer moves still mirror (they carry no page effect).
func ReadOnlyPolicy() Policy {
	return PolicyFunc(func(_ string, act Action) Decision {
		if act.Kind == ActionMouseMove || act.Kind == ActionScroll {
			return Apply
		}
		return Deny
	})
}
