// Package cluster is the sharding layer behind a multi-replica
// `bmpcast serve` deployment: a consistent-hash ring that assigns each
// content-addressed request key to exactly one owning replica, a
// membership Node that re-shards the ring on join/leave, and a small
// hedged-call helper for latency-bounded peer asks.
//
// The package is deliberately transport-free. It never opens a
// connection: the service layer (internal/service) talks to peers
// through the exported client SDK — the versioned wire contract is the
// only inter-replica protocol — and the client SDK reuses the same
// ring so a cluster-aware client and the replicas agree on who owns
// which key. Both sides hash the SHA-256 of the request's canonical
// wire encoding (the PR 5 plan-cache key), so "the replica that owns
// this key" and "the replica whose cache memoizes this plan" are the
// same node by construction.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"strings"
)

// vnodes is the number of virtual points each member projects onto
// the ring. 64 vnodes keep the expected key movement of one membership
// change near the ideal 1/N (the property test pins ≤ 2/N) while the
// ring stays small enough to rebuild on every change. Every replica
// and cluster-aware client of one cluster must place the same points,
// so the count is fixed.
const vnodes = 64

// point is one virtual node: a position on the 64-bit hash circle and
// the member it maps to.
type point struct {
	pos    uint64
	member int // index into members
}

// Ring is an immutable consistent-hash ring over a set of member
// endpoints. Build one with NewRing; derive re-sharded rings with
// With/Without. Immutability makes sharing across goroutines free —
// the membership Node swaps whole rings under its lock.
type Ring struct {
	members []string // sorted, unique
	points  []point  // sorted by pos
}

// NewRing builds a ring over members (duplicates and empty strings are
// dropped; order does not matter — the same member set always produces
// the same ring). An empty member set yields a ring whose Owner is "".
func NewRing(members []string) *Ring {
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq}
	r.points = make([]point, 0, len(uniq)*vnodes)
	for mi, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{pos: pointPos(m, v), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		// Tie-break on the member name so the ring is deterministic even
		// in the (astronomically unlikely) event of a position collision.
		return r.members[r.points[i].member] < r.members[r.points[j].member]
	})
	return r
}

// pointPos places virtual node v of a member on the hash circle.
func pointPos(member string, v int) uint64 {
	h := sha256.Sum256([]byte(member + "#" + strconv.Itoa(v)))
	return binary.BigEndian.Uint64(h[:8])
}

// KeyPos places a content-addressed key on the hash circle. Keys are
// SHA-256 digests already (the plan-cache key), so the first eight
// bytes are uniformly distributed as they stand.
func KeyPos(key [sha256.Size]byte) uint64 { return binary.BigEndian.Uint64(key[:8]) }

// Key hashes a request's canonical wire encoding into its ring key —
// exactly the plan cache's content address.
func Key(canonical []byte) [sha256.Size]byte { return sha256.Sum256(canonical) }

// Normalize canonicalizes an endpoint for use as a ring member. Ring
// members are compared as strings, so every layer (client config,
// serve -self/-peers, membership documents) must agree on one spelling
// — "http://a:8080" and "http://a:8080/" hash to different points
// otherwise.
func Normalize(endpoint string) string {
	return strings.TrimRight(strings.TrimSpace(endpoint), "/")
}

// Members returns the ring's member set (sorted; shared, do not
// mutate).
func (r *Ring) Members() []string { return r.members }

// Contains reports whether member is on the ring.
func (r *Ring) Contains(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's position. An empty ring owns nothing ("").
func (r *Ring) Owner(key [sha256.Size]byte) string {
	own := r.ownerIndex(KeyPos(key))
	if own < 0 {
		return ""
	}
	return r.members[own]
}

// ownerIndex resolves a circle position to a member index (−1 when
// empty).
func (r *Ring) ownerIndex(pos uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point succeeds its last
	}
	return r.points[i].member
}

// Successors returns up to n distinct members in ring order starting
// at the key's owner — the owner first, then the replicas a hedged
// request falls over to. n ≤ 0 or beyond the member count is clamped.
func (r *Ring) Successors(key [sha256.Size]byte, n int) []string {
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	pos := KeyPos(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// With derives the ring that results from member joining (the receiver
// is unchanged; adding an existing member returns an equal ring).
func (r *Ring) With(member string) *Ring {
	return NewRing(append(append([]string{}, r.members...), member))
}

// Without derives the ring that results from member leaving.
func (r *Ring) Without(member string) *Ring {
	kept := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	return NewRing(kept)
}
