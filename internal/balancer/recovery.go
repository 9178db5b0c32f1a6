package balancer

import (
	"slices"

	"github.com/dynamoth/dynamoth/internal/plan"
)

// RepairPlan builds the successor plan after a server failure: the dead
// server is removed from the active set and the fallback ring, and every
// explicitly mapped channel that named it is evacuated onto its consistent-
// hash ring successor among the survivors. The replication strategy and
// replica count of each entry are preserved when a distinct survivor exists;
// otherwise the entry shrinks by the dead replica (never to zero while any
// survivor remains).
//
// The ring successor is deliberately the same server a failed-over client
// picks when its dial to the dead server errors out (the client walks the
// channel's ring candidates): publishers and the repaired plan converge on
// the same survivor even before the new plan or its switch notifications
// arrive, and the in-flight SWITCH/dedup machinery absorbs the overlap
// exactly-once as in any other migration.
//
// The returned plan carries Version = current.Version + 1. evacuated counts
// the explicit entries that named the dead server; changed reports whether
// it appeared anywhere in the current plan.
func RepairPlan(current *plan.Plan, dead plan.ServerID) (next *plan.Plan, evacuated int, changed bool) {
	next = current.Clone()
	next.Version = current.Version + 1
	next.RemoveServer(dead)
	evacuated = scrubChannels(current, next, dead)
	changed = evacuated > 0 || len(next.Servers) < len(current.Servers) || len(next.RingServers) < len(current.RingServers)
	return next, evacuated, changed
}

// scrubChannels rewrites every explicit entry of next that references dead,
// substituting ring successors drawn from next's (survivor-only) ring. It
// returns how many entries referenced the dead server.
func scrubChannels(current, next *plan.Plan, dead plan.ServerID) int {
	touched := 0
	for ch, e := range current.Channels {
		if !slices.Contains(e.Servers, dead) {
			continue
		}
		touched++
		survivors := make([]plan.ServerID, 0, len(e.Servers))
		for _, s := range e.Servers {
			if s != dead {
				survivors = append(survivors, s)
			}
		}
		if repl, ok := ringSuccessor(next, ch, survivors); ok {
			survivors = append(survivors, repl)
		}
		if len(survivors) == 0 {
			// No replacement available at all (empty pool): drop the entry,
			// the fallback ring (also empty) is no worse.
			next.Unset(ch)
			continue
		}
		next.Set(ch, plan.Entry{Strategy: e.Strategy, Servers: survivors})
	}
	return touched
}

// ringSuccessor picks the first server in ch's ring order (on next's ring,
// which no longer contains the dead server) that is not already a replica.
func ringSuccessor(next *plan.Plan, ch string, have []plan.ServerID) (plan.ServerID, bool) {
	for _, cand := range next.Ring().LookupN(ch, len(next.RingServers)) {
		used := false
		for _, s := range have {
			if s == cand {
				used = true
				break
			}
		}
		if !used {
			return cand, true
		}
	}
	return "", false
}
