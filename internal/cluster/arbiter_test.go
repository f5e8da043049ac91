package cluster

import (
	"strings"
	"testing"
	"time"

	"autoloop/internal/core"
	"autoloop/internal/fleet"
)

func digest(worker string, seq uint64, actions ...fleet.ActionDigest) Digest {
	return Digest{Worker: worker, Seq: seq, Actions: actions}
}

func TestArbiterCrossNodeConflict(t *testing.T) {
	a := NewArbiter(2 * time.Second)
	now := time.Unix(50, 0)

	// w1's power-cap on the plant wins the grant.
	v := a.Decide(digest("w1", 1, fleet.ActionDigest{
		Loop: "power", Kind: "cap.power", Subject: "plant", Priority: 5,
	}), now)
	if len(v.Deny) != 1 || v.Deny[0] {
		t.Fatalf("first grant denied: %+v", v)
	}

	// w2's contradicting raise on the same subject, lower priority, inside
	// the window: denied with the holder named.
	v = a.Decide(digest("w2", 1, fleet.ActionDigest{
		Loop: "boost", Kind: "raise.power", Subject: "plant", Priority: 3,
	}), now.Add(time.Second))
	if !v.Deny[0] {
		t.Fatal("conflicting lower-priority action was not denied")
	}
	if !strings.Contains(v.Reasons[0], "w1") {
		t.Fatalf("denial reason does not name the holder: %q", v.Reasons[0])
	}
	if a.Denied() != 1 {
		t.Fatalf("Denied = %d, want 1", a.Denied())
	}

	// A higher-priority contradiction takes the grant over.
	v = a.Decide(digest("w3", 1, fleet.ActionDigest{
		Loop: "urgent", Kind: "raise.power", Subject: "plant", Priority: 9,
	}), now.Add(time.Second))
	if v.Deny[0] {
		t.Fatal("higher-priority action was denied")
	}

	// Past the window the grant lapses and anyone may act.
	v = a.Decide(digest("w1", 2, fleet.ActionDigest{
		Loop: "power", Kind: "cap.power", Subject: "plant", Priority: 1,
	}), now.Add(10*time.Second))
	if v.Deny[0] {
		t.Fatal("action denied after the grant window lapsed")
	}
}

func TestArbiterSameWorkerAndSameKindAllowed(t *testing.T) {
	a := NewArbiter(2 * time.Second)
	now := time.Unix(0, 0)
	a.Decide(digest("w1", 1, fleet.ActionDigest{
		Loop: "l1", Kind: "cap.power", Subject: "plant", Priority: 5,
	}), now)

	// Same worker, contradicting kind: its local arbiter already ruled.
	v := a.Decide(digest("w1", 2, fleet.ActionDigest{
		Loop: "l2", Kind: "raise.power", Subject: "plant", Priority: 1,
	}), now)
	if v.Deny[0] {
		t.Fatal("same-worker action denied by the cross-node arbiter")
	}

	// Different worker, same kind: redundancy, not contradiction.
	v = a.Decide(digest("w2", 1, fleet.ActionDigest{
		Loop: "l3", Kind: "raise.power", Subject: "plant", Priority: 1,
	}), now)
	if v.Deny[0] {
		t.Fatal("same-kind action denied by the cross-node arbiter")
	}
}

func TestArbiterKindRankBeatsPriority(t *testing.T) {
	a := NewArbiter(2*time.Second).RankKind("emergency.cap", 10)
	now := time.Unix(0, 0)
	a.Decide(digest("w1", 1, fleet.ActionDigest{
		Loop: "opt", Kind: "raise.power", Subject: "plant", Priority: 100,
	}), now)
	v := a.Decide(digest("w2", 1, fleet.ActionDigest{
		Loop: "safety", Kind: "emergency.cap", Subject: "plant", Priority: 1,
	}), now)
	if v.Deny[0] {
		t.Fatal("ranked kind lost to an unranked high-priority action")
	}
	// And the reverse contradiction is now denied.
	v = a.Decide(digest("w1", 2, fleet.ActionDigest{
		Loop: "opt", Kind: "raise.power", Subject: "plant", Priority: 100,
	}), now.Add(time.Second))
	if !v.Deny[0] {
		t.Fatal("unranked action beat a held ranked grant")
	}
}

func TestArbiterForgetDropsDeadWorkersGrants(t *testing.T) {
	a := NewArbiter(time.Hour) // a window long enough to otherwise block
	now := time.Unix(0, 0)
	a.Decide(digest("w1", 1, fleet.ActionDigest{
		Loop: "l", Kind: "cap.power", Subject: "plant", Priority: 5,
	}), now)
	a.Forget("w1")
	v := a.Decide(digest("w2", 1, fleet.ActionDigest{
		Loop: "l", Kind: "raise.power", Subject: "plant", Priority: 1,
	}), now.Add(time.Second))
	if v.Deny[0] {
		t.Fatal("dead worker's grant still held after Forget")
	}
}

func TestArbiterSubjectlessActionsIgnored(t *testing.T) {
	a := NewArbiter(time.Second)
	v := a.Decide(digest("w1", 1, fleet.ActionDigest{Loop: "l", Kind: "k"}), time.Unix(0, 0))
	if v.Deny[0] {
		t.Fatal("subjectless action denied")
	}
	if a.Denied() != 0 {
		t.Fatal("subjectless action counted as denied")
	}
}

// TestArbitersAgree feeds the same same-subject contests to the per-round
// fleet arbiter (two loops in one round, the holder registered first) and to
// the cross-node grant table (two workers, the holder's digest first); both
// must pick the same winner, since both apply fleet.Contest.
func TestArbitersAgree(t *testing.T) {
	type side struct {
		kind     string
		priority int
	}
	ranks := map[string]int{"cap": 2, "shed": 1, "drain": 1}
	cases := []struct {
		name               string
		holder, challenger side
		want               string // "holder", "challenger", or "both"
	}{
		{"higher priority holds", side{"raise", 5}, side{"lower", 3}, "holder"},
		{"higher priority takes", side{"raise", 5}, side{"lower", 9}, "challenger"},
		{"priority tie keeps holder", side{"raise", 5}, side{"lower", 5}, "holder"},
		{"kind rank beats priority", side{"raise", 9}, side{"shed", 1}, "challenger"},
		{"higher kind rank holds", side{"cap", 1}, side{"shed", 9}, "holder"},
		{"equal kind ranks fall to priority", side{"shed", 4}, side{"drain", 7}, "challenger"},
		{"same ranked kind is redundancy", side{"shed", 4}, side{"shed", 7}, "both"},
		{"same kind is redundancy", side{"raise", 1}, side{"raise", 9}, "both"},
		{"same kind lower priority", side{"raise", 9}, side{"raise", 1}, "both"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// In-process: one fleet round.
			var executed []string
			loop := func(name string, s side) *core.Loop {
				act := core.Action{Kind: s.kind, Subject: "plant"}
				return core.NewLoop(name,
					core.MonitorFunc(func(now time.Duration) (core.Observation, error) {
						return core.Observation{Time: now}, nil
					}),
					core.AnalyzerFunc(func(now time.Duration, _ core.Observation) (core.Symptoms, error) {
						return core.Symptoms{Time: now}, nil
					}),
					core.PlannerFunc(func(now time.Duration, _ core.Symptoms) (core.Plan, error) {
						return core.Plan{Time: now, Actions: []core.Action{act}}, nil
					}),
					core.ExecutorFunc(func(now time.Duration, a core.Action) (core.ActionResult, error) {
						executed = append(executed, name)
						return core.ActionResult{Action: a, Honored: true}, nil
					}))
			}
			c := fleet.New(1)
			for kind, r := range ranks {
				c.Arbiter().RankKind(kind, r)
			}
			c.Add(loop("holder", tc.holder), tc.holder.priority)
			c.Add(loop("challenger", tc.challenger), tc.challenger.priority)
			c.Tick(time.Minute)
			local := strings.Join(executed, "+")
			switch local {
			case "holder+challenger":
				local = "both"
			case "holder", "challenger":
			default:
				t.Fatalf("fleet executed %q", local)
			}

			// Cross-node: the holder's grant, then the challenger's digest.
			a := NewArbiter(time.Hour)
			for kind, r := range ranks {
				a.RankKind(kind, r)
			}
			now := time.Unix(100, 0)
			if v := a.Decide(digest("w1", 1, fleet.ActionDigest{
				Loop: "holder", Kind: tc.holder.kind, Subject: "plant", Priority: tc.holder.priority,
			}), now); v.Deny[0] {
				t.Fatal("first grant denied")
			}
			v := a.Decide(digest("w2", 1, fleet.ActionDigest{
				Loop: "challenger", Kind: tc.challenger.kind, Subject: "plant", Priority: tc.challenger.priority,
			}), now)
			remote := "challenger"
			if v.Deny[0] {
				remote = "holder"
			} else if tc.holder.kind == tc.challenger.kind {
				remote = "both"
			}

			if local != tc.want || remote != tc.want {
				t.Errorf("winner: fleet %s, cluster %s, want %s", local, remote, tc.want)
			}
		})
	}
}
