package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
)

// Node is one replica's view of the cluster: its own advertised
// endpoint, the current membership ring, and a monotonic version that
// bumps on every membership change. A Node is safe for concurrent use;
// reads take a snapshot of the immutable ring, so routing decisions
// made mid-change stay internally consistent (an in-flight request is
// routed entirely on the ring it started with — membership changes
// re-shard *future* requests, they never drop in-flight ones).
type Node struct {
	self string

	mu      sync.RWMutex
	ring    *Ring
	version int64
}

// NewNode builds a replica's membership state: self plus the seed
// peers (self is always a member, duplicates are dropped).
func NewNode(self string, peers []string) *Node {
	return &Node{self: self, ring: NewRing(append(append([]string{}, peers...), self))}
}

// Self returns the node's advertised endpoint.
func (n *Node) Self() string { return n.self }

// Ring snapshots the current ring.
func (n *Node) Ring() *Ring {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring
}

// Version reports how many membership changes this node has applied.
func (n *Node) Version() int64 {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.version
}

// Members snapshots the sorted member set (including self).
func (n *Node) Members() []string { return n.Ring().Members() }

// Owner resolves a key to its owning member on the current ring and
// reports whether that is this node.
func (n *Node) Owner(key [sha256.Size]byte) (member string, self bool) {
	member = n.Ring().Owner(key)
	return member, member == n.self
}

// Join adds a member, re-sharding the ring. It reports whether the
// membership actually changed (joining an existing member, the empty
// string, or self is a no-op).
func (n *Node) Join(member string) bool {
	if member == "" || member == n.self {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ring.Contains(member) {
		return false
	}
	n.ring = n.ring.With(member)
	n.version++
	return true
}

// Leave removes a member, re-sharding the ring. Removing self or an
// unknown member is a no-op (a node never evicts itself from its own
// view; it just stops being advertised by the others).
func (n *Node) Leave(member string) bool {
	if member == "" || member == n.self {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.ring.Contains(member) {
		return false
	}
	n.ring = n.ring.Without(member)
	n.version++
	return true
}

// ShortID derives a compact, stable tag from an endpoint — used to
// namespace job ids so "j3" on two replicas can never collide
// cluster-wide ("j3-a1b2c3").
func ShortID(endpoint string) string {
	h := sha256.Sum256([]byte(endpoint))
	return hex.EncodeToString(h[:3])
}

// String describes the node for logs.
func (n *Node) String() string {
	return fmt.Sprintf("cluster.Node(%s, %d members, v%d)", n.self, len(n.Members()), n.Version())
}
