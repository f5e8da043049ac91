package fleet

import (
	"fmt"

	"autoloop/internal/core"
)

// ConflictRecord describes one arbitrated subject in one round: the action
// that won and the actions that lost to it. It is the payload published on
// TopicConflict.
type ConflictRecord struct {
	Subject string   `json:"subject"`
	Winner  string   `json:"winner"` // "loop/kind"
	Losers  []string `json:"losers"` // "loop/kind" each
}

// Claim is one action's standing in a same-subject contest: its kind, the
// kind's rank (see Arbiter.RankKind; unranked kinds rank 0), and the
// priority of the loop that planned it.
type Claim struct {
	Kind     string
	Rank     int
	Priority int
}

// Contest is the one arbitration rule, applied to two same-subject actions
// from different loops by the per-round Arbiter here and from different
// workers by the cross-node grant table in internal/cluster. The actions
// conflict only when their kinds differ: two loops planning the same kind of
// action on a subject is redundancy, not contradiction. Challenger x
// outranks holder y by higher kind rank first, then higher priority; ties
// keep the holder.
func Contest(x, y Claim) (conflict, outranks bool) {
	conflict = x.Kind != y.Kind
	if x.Rank != y.Rank {
		return conflict, x.Rank > y.Rank
	}
	return conflict, x.Priority > y.Priority
}

// Arbiter resolves cross-loop conflicts among the actions planned in one
// round. Within a subject planned on by more than one loop, one winner is
// chosen by Contest's order (kind rank, then loop priority), ties going to
// the earlier registration and plan position; every action from another
// loop that conflicts with the winner loses and is marked arbitrated on its
// loop.
type Arbiter struct {
	kindRank map[string]int
}

// NewArbiter returns an arbiter with no kind ranks.
func NewArbiter() *Arbiter {
	return &Arbiter{kindRank: make(map[string]int)}
}

// RankKind declares that actions of this kind dominate lower-ranked kinds on
// the same subject regardless of loop priority — e.g. ranking "cap" above
// "boost" lets a power-cap loop's cap beat a scheduler loop's boost even when
// the scheduler loop registered with higher priority. Unranked kinds rank 0;
// higher ranks win.
func (a *Arbiter) RankKind(kind string, rank int) *Arbiter {
	a.kindRank[kind] = rank
	return a
}

// candidate is one planned action located in the round's plan set.
type candidate struct {
	mi, ai int // member index, action index within its plan
	claim  Claim
}

// resolve arbitrates one round: it groups the planned actions by subject,
// picks a winner per contested group, marks every conflicting loser on its
// PlannedTick, and returns the conflict records in deterministic
// (first-subject-appearance) order.
func (a *Arbiter) resolve(members []member, plans []*core.PlannedTick) []ConflictRecord {
	var order []string
	bySubject := make(map[string][]candidate)
	multiLoop := make(map[string]bool)
	for mi, pt := range plans {
		for ai, act := range pt.Actions() {
			if act.Subject == "" {
				continue
			}
			group := bySubject[act.Subject]
			if group == nil {
				order = append(order, act.Subject)
			} else if group[0].mi != mi {
				multiLoop[act.Subject] = true
			}
			bySubject[act.Subject] = append(group, candidate{mi: mi, ai: ai, claim: Claim{
				Kind: act.Kind, Rank: a.kindRank[act.Kind], Priority: members[mi].priority,
			}})
		}
	}

	var records []ConflictRecord
	for _, subject := range order {
		if !multiLoop[subject] {
			continue // a loop never conflicts with itself
		}
		group := bySubject[subject]
		win := group[0]
		for _, cand := range group[1:] {
			if _, outranks := Contest(cand.claim, win.claim); outranks {
				win = cand
			}
		}
		var losers []string
		for _, cand := range group {
			if conflict, _ := Contest(cand.claim, win.claim); cand.mi == win.mi || !conflict {
				continue
			}
			loserLoop := members[cand.mi].loop
			winnerLoop := members[win.mi].loop
			plans[cand.mi].Arbitrate(cand.ai, fmt.Sprintf(
				"lost %s to %s/%s (kind rank %d vs %d, priority %d vs %d)",
				subject, winnerLoop.Name, win.claim.Kind,
				cand.claim.Rank, win.claim.Rank, cand.claim.Priority, win.claim.Priority))
			losers = append(losers, loserLoop.Name+"/"+cand.claim.Kind)
		}
		if len(losers) > 0 {
			records = append(records, ConflictRecord{
				Subject: subject,
				Winner:  members[win.mi].loop.Name + "/" + win.claim.Kind,
				Losers:  losers,
			})
		}
	}
	return records
}
