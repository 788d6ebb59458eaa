package obs

import (
	"fmt"
	"strings"
)

// Causes of a HopEvent. A message trace is a sequence of events:
// exactly one CauseInject, zero or more CauseForward (one per link
// crossed) possibly interleaved with CauseReroute markers, and one
// terminal CauseDeliver or CauseDrop.
const (
	// CauseInject marks the message entering the network at its source.
	CauseInject = "inject"
	// CauseForward marks one link crossing.
	CauseForward = "forward"
	// CauseReroute marks a mid-flight route recomputation (the site is
	// unchanged; Detail names the failed next site routed around).
	CauseReroute = "reroute"
	// CauseDeliver marks acceptance at the destination.
	CauseDeliver = "deliver"
	// CauseDrop marks a discard; Detail carries the reason.
	CauseDrop = "drop"
)

// HopEvent is one structured step of a message's journey — the
// upgrade of the bare visited-site list to per-hop observability.
type HopEvent struct {
	// Hop is the number of links crossed up to and including this
	// event (0 for the injection event).
	Hop int `json:"hop"`
	// Cause is one of the Cause* constants.
	Cause string `json:"cause"`
	// Site is the address of the site holding the message after the
	// event.
	Site string `json:"site"`
	// Link is "L" or "R" for forward events, empty otherwise.
	Link string `json:"link,omitempty"`
	// Digit is the digit inserted by a forward event (-1 otherwise).
	Digit int `json:"digit"`
	// Wildcard reports that the hop was a (a,*) pair before the
	// forwarding site resolved it to Digit.
	Wildcard bool `json:"wildcard,omitempty"`
	// Layer is the distance-layer index B_i of the site relative to the
	// destination (Fàbrega et al.): the remaining distance, counting
	// down to 0 as the message closes in. Zero means "at the
	// destination" — or "not computed", for producers that predate
	// layers (the network engines leave it unset; the serving stack's
	// sampled route traces always fill it).
	Layer int `json:"layer,omitempty"`
	// Detail carries reroute causes and drop reasons.
	Detail string `json:"detail,omitempty"`
}

// Trace is the structured per-hop event sequence of one message.
type Trace []HopEvent

// Sites returns the visited site addresses in order (inject and
// forward events only) — the bare site list the trace replaces.
func (t Trace) Sites() []string {
	out := make([]string, 0, len(t))
	for _, ev := range t {
		if ev.Cause == CauseInject || ev.Cause == CauseForward {
			out = append(out, ev.Site)
		}
	}
	return out
}

// Hops returns the number of forward events.
func (t Trace) Hops() int {
	n := 0
	for _, ev := range t {
		if ev.Cause == CauseForward {
			n++
		}
	}
	return n
}

// String renders the trace compactly, one event per line:
//
//	hop  event   site
//	  0  inject  001011
//	  1  L(1)    010111
//	  2  L(*→0)  101110
//	     reroute @101110  next site 011100 failed
//	  ✓ delivered at 101110 after 2 hops
func (t Trace) String() string {
	var b strings.Builder
	b.WriteString("hop  event   site\n")
	for _, ev := range t {
		switch ev.Cause {
		case CauseInject:
			fmt.Fprintf(&b, "%3d  inject  %s\n", ev.Hop, ev.Site)
		case CauseForward:
			op := fmt.Sprintf("%s(%d)", ev.Link, ev.Digit)
			if ev.Wildcard {
				op = fmt.Sprintf("%s(*→%d)", ev.Link, ev.Digit)
			}
			fmt.Fprintf(&b, "%3d  %-6s  %s\n", ev.Hop, op, ev.Site)
		case CauseReroute:
			fmt.Fprintf(&b, "     reroute @%s  %s\n", ev.Site, ev.Detail)
		case CauseDeliver:
			fmt.Fprintf(&b, "  ✓ delivered at %s after %d hops\n", ev.Site, ev.Hop)
		case CauseDrop:
			fmt.Fprintf(&b, "  ✗ dropped at %s after %d hops: %s\n", ev.Site, ev.Hop, ev.Detail)
		default:
			fmt.Fprintf(&b, "%3d  %-6s  %s  %s\n", ev.Hop, ev.Cause, ev.Site, ev.Detail)
		}
	}
	return b.String()
}
