package cluster

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randKeys draws count seeded content-addressed keys (the real keys
// are SHA-256 digests of canonical request documents; hashing a
// counter reproduces the same uniformity deterministically).
func randKeys(count int, seed int64) [][sha256.Size]byte {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][sha256.Size]byte, count)
	for i := range keys {
		keys[i] = sha256.Sum256([]byte(fmt.Sprintf("key-%d-%d", i, rng.Int63())))
	}
	return keys
}

func members(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return ms
}

func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	ms := members(5)
	shuffled := append([]string{}, ms...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, b := NewRing(ms), NewRing(shuffled)
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Fatalf("member sets differ: %v vs %v", a.Members(), b.Members())
	}
	for _, k := range randKeys(500, 1) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner differs for the same member set: %q vs %q", a.Owner(k), b.Owner(k))
		}
	}
	// Duplicates and empty strings are dropped.
	c := NewRing(append(append([]string{"", ms[0]}, ms...), ms[2]))
	if !reflect.DeepEqual(c.Members(), a.Members()) {
		t.Fatalf("dedup failed: %v", c.Members())
	}
}

func TestRingOwnerIsAMemberAndBalanced(t *testing.T) {
	r := NewRing(members(8))
	counts := map[string]int{}
	keys := randKeys(8000, 2)
	for _, k := range keys {
		owner := r.Owner(k)
		if !r.Contains(owner) {
			t.Fatalf("owner %q is not a member", owner)
		}
		counts[owner]++
	}
	// With 64 vnodes the shards are not perfectly even, but every
	// member must own a non-trivial share (no starved replica).
	want := len(keys) / 8
	for m, c := range counts {
		if c < want/3 || c > want*3 {
			t.Errorf("member %s owns %d of %d keys (ideal %d): ring badly unbalanced", m, c, len(keys), want)
		}
	}
	if len(counts) != 8 {
		t.Errorf("only %d of 8 members own any keys", len(counts))
	}
}

// TestRingJoinMovesOnlyToTheJoiner is the membership-change property:
// when a replica joins, a key either keeps its owner or moves TO the
// joiner — never between two unaffected replicas — and at most 2/N of
// keys move (ideal 1/(N+1)).
func TestRingJoinMovesOnlyToTheJoiner(t *testing.T) {
	for _, n := range []int{3, 5, 10} {
		ms := members(n)
		before := NewRing(ms)
		joiner := "http://replica-new:8080"
		after := before.With(joiner)
		keys := randKeys(5000, int64(n))
		moved := 0
		for _, k := range keys {
			ob, oa := before.Owner(k), after.Owner(k)
			if ob == oa {
				continue
			}
			moved++
			if oa != joiner {
				t.Fatalf("n=%d: key moved %q→%q on join of %q (must only move to the joiner)", n, ob, oa, joiner)
			}
		}
		if limit := 2 * len(keys) / (n + 1); moved > limit {
			t.Errorf("n=%d: join moved %d of %d keys, want ≤ 2/N = %d", n, moved, len(keys), limit)
		}
		if moved == 0 {
			t.Errorf("n=%d: join moved no keys at all", n)
		}
	}
}

// TestRingLeaveMovesOnlyFromTheLeaver mirrors the join property: keys
// only move FROM the leaver, and at most 2/N of keys re-shard.
func TestRingLeaveMovesOnlyFromTheLeaver(t *testing.T) {
	for _, n := range []int{3, 5, 10} {
		ms := members(n)
		before := NewRing(ms)
		leaver := ms[n/2]
		after := before.Without(leaver)
		keys := randKeys(5000, int64(100+n))
		moved := 0
		for _, k := range keys {
			ob, oa := before.Owner(k), after.Owner(k)
			if ob == oa {
				continue
			}
			moved++
			if ob != leaver {
				t.Fatalf("n=%d: key moved %q→%q on leave of %q (must only move from the leaver)", n, ob, oa, leaver)
			}
			if oa == leaver {
				t.Fatalf("n=%d: key still owned by departed %q", n, leaver)
			}
		}
		if limit := 2 * len(keys) / n; moved > limit {
			t.Errorf("n=%d: leave moved %d of %d keys, want ≤ 2/N = %d", n, moved, len(keys), limit)
		}
	}
}

func TestRingSuccessorsDistinctAndOwnerFirst(t *testing.T) {
	r := NewRing(members(5))
	for _, k := range randKeys(200, 4) {
		succ := r.Successors(k, 3)
		if len(succ) != 3 {
			t.Fatalf("got %d successors, want 3", len(succ))
		}
		if succ[0] != r.Owner(k) {
			t.Fatalf("successors[0] = %q, owner = %q", succ[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate successor %q in %v", s, succ)
			}
			seen[s] = true
		}
	}
	if got := r.Successors(randKeys(1, 5)[0], 99); len(got) != 5 {
		t.Fatalf("clamped successors = %d, want 5", len(got))
	}
	if NewRing(nil).Owner(randKeys(1, 6)[0]) != "" {
		t.Fatal("empty ring owner should be \"\"")
	}
}

func TestNodeJoinLeave(t *testing.T) {
	n := NewNode("http://a", []string{"http://b"})
	if got := n.Members(); len(got) != 2 {
		t.Fatalf("members = %v", got)
	}
	if n.Join("http://a") || n.Join("") || n.Join("http://b") {
		t.Fatal("no-op joins must report false")
	}
	if n.Version() != 0 {
		t.Fatalf("version bumped by no-op joins: %d", n.Version())
	}
	if !n.Join("http://c") || n.Version() != 1 || len(n.Members()) != 3 {
		t.Fatalf("join: members=%v version=%d", n.Members(), n.Version())
	}
	if !n.Leave("http://b") || n.Version() != 2 || len(n.Members()) != 2 {
		t.Fatalf("leave: members=%v version=%d", n.Members(), n.Version())
	}
	if n.Leave("http://a") {
		t.Fatal("a node never evicts itself")
	}
	key := randKeys(1, 7)[0]
	owner, self := n.Owner(key)
	if owner == "" || self != (owner == "http://a") {
		t.Fatalf("owner=%q self=%v", owner, self)
	}
}

// TestNodeConcurrentMembership exercises ring swaps under -race:
// readers route on consistent snapshots while joins/leaves re-shard.
func TestNodeConcurrentMembership(t *testing.T) {
	n := NewNode("http://a", members(3))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			m := fmt.Sprintf("http://churn-%d", i%5)
			n.Join(m)
			n.Leave(m)
		}
	}()
	keys := randKeys(64, 8)
	for i := 0; i < 2000; i++ {
		k := keys[i%len(keys)]
		ring := n.Ring()
		owner := ring.Owner(k)
		if owner == "" || !ring.Contains(owner) {
			t.Fatalf("snapshot ring routed key to %q", owner)
		}
	}
	<-done
}

func TestShortIDStableAndDistinct(t *testing.T) {
	a, b := ShortID("http://a:1"), ShortID("http://b:2")
	if a == b || len(a) != 6 || a != ShortID("http://a:1") {
		t.Fatalf("ShortID: a=%q b=%q", a, b)
	}
}
