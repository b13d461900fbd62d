package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/client"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/wire"
)

// The cluster layer: N replicas shard one logical plan cache by
// consistent-hashing each request's content address (the SHA-256 of
// its canonical wire encoding — the same key the cache uses) onto a
// replica ring. A replica that receives a solve it does not own
// forwards it to the owner's /v1/cluster/solve, so every distinct plan
// is solved once cluster-wide (the owner's singleflight collapses
// concurrent copies) and persisted only by its owner; the forwarding
// replica keeps the answer in memory for its repeats. The forward is
// hedged: when the owner stays silent past Config.
// HedgeAfter — or fails outright — the replica solves locally and
// back-fills the owner's cache via /v1/cluster/fill, so a slow or dead
// owner costs latency, never availability.
//
// Membership is gossip-lite: POST /v1/cluster/join|leave applies a
// change and (when asked) propagates it to every known member once.
// Ring swaps only steer *future* requests — in-flight solves, jobs and
// streams finish on the replica they started on, which is why job ids
// are namespaced per replica (j3-a1b2c3) and job handles pin to their
// endpoint.
//
// Everything below speaks the exported client SDK and versioned wire
// documents; there is no private inter-replica protocol.

// DefaultHedgeAfter is the owner-latency budget before a forwarded
// solve is hedged with a local one, when the config does not choose.
const DefaultHedgeAfter = 150 * time.Millisecond

// backfillTimeout bounds one asynchronous cache back-fill.
const backfillTimeout = 5 * time.Second

// clustered reports whether this replica is part of a cluster.
func (s *Server) clustered() bool { return s.node != nil }

// peer returns (building lazily) the single-endpoint SDK client for a
// member. Peer calls are single-shot — the hedge supplies redundancy,
// retries would only delay it.
func (s *Server) peer(ep string) *client.Client {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	if c, ok := s.peers[ep]; ok {
		return c
	}
	c, err := client.NewFromConfig(client.Config{
		Endpoints: []string{ep},
		Retry:     client.Retry{Retries: -1},
	})
	if err != nil { // unreachable: ep is a non-empty member name
		panic(err)
	}
	s.peers[ep] = c
	return c
}

// maybeForward routes one decoded solve by ring ownership. For a key a
// peer owns it answers from memory when this replica already holds the
// plan (label "hit"), and otherwise forwards to the owner, hedged with
// a local solve, and keeps the owner's answer in memory (label
// "forward"). A self-owned key, or an unencodable request, which has
// no content address, returns label "" and leaves the caller on the
// ordinary local path.
func (s *Server) maybeForward(r *http.Request, req engine.Request) (out []byte, label string, err error) {
	canonical, encErr := wire.EncodeRequest(req)
	if encErr != nil {
		return nil, "", nil
	}
	key := cluster.Key(canonical)
	owner, self := s.node.Owner(key)
	if self || owner == "" {
		return nil, "", nil
	}
	if out, ok := s.cache.Rendered(key); ok {
		return out, "hit", nil
	}
	s.forwardsN.Add(1)
	out, fromFallback, err := cluster.Hedged(r.Context(), s.cfg.HedgeAfter,
		func(ctx context.Context) ([]byte, error) {
			if f, ok := chaos.Hit(chaos.PeerSlow); ok {
				// Slow owner: stall the ask so the hedge timer fires and
				// the local fallback races it.
				if err := chaos.Sleep(ctx, f.Delay); err != nil {
					return nil, err
				}
			}
			out, err := s.peer(owner).PeerSolveRaw(ctx, canonical)
			if err != nil {
				s.peerErrsN.Add(1)
			}
			return out, err
		},
		func(ctx context.Context) ([]byte, error) {
			s.hedgesN.Add(1)
			if err := s.acquireCtx(ctx); err != nil {
				return nil, engine.Canceled(err)
			}
			defer s.release()
			out, _, err := s.solveRendered(ctx, req)
			return out, err
		})
	if err != nil {
		return nil, "", err
	}
	if fromFallback {
		s.fallbackWinsN.Add(1)
		s.backfill(owner, canonical, out)
	} else {
		// Memory only: the owner persists the key in its own shard.
		s.cache.Fill(key, out)
	}
	return out, "forward", nil
}

// backfill pushes a locally solved plan to the replica that owns its
// key, asynchronously and best-effort — a lost fill costs the owner
// one future re-solve.
func (s *Server) backfill(owner string, canonical, rendered []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.jobsWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.jobsWG.Done()
		ctx, cancel := context.WithTimeout(s.jobsCtx, backfillTimeout)
		defer cancel()
		if _, err := s.peer(owner).PeerFill(ctx, canonical, rendered); err != nil {
			s.peerErrsN.Add(1)
			return
		}
		s.fillsSentN.Add(1)
	}()
}

// ---------------------------------------------------------------------------
// POST /v1/cluster/solve — the peer-to-peer solve endpoint

// handleClusterSolve answers a solve exactly like /v1/solve except it
// never forwards: a peer asked this replica *because* the ring says
// the key is ours, and answering locally regardless of ring view makes
// forwarding loops impossible even while membership changes disagree.
func (s *Server) handleClusterSolve(w http.ResponseWriter, r *http.Request) {
	defer s.track("clustersolve")()
	s.serveSolve(w, r, false)
}

// ---------------------------------------------------------------------------
// POST /v1/cluster/fill — peer cache back-fill

func (s *Server) handleClusterFill(w http.ResponseWriter, r *http.Request) {
	defer s.track("clusterfill")()
	body, release, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var doc wire.FillDoc
	err = wire.Unmarshal(body, &doc, "fill request")
	release()
	if err != nil {
		s.fail(w, err)
		return
	}
	if doc.V != wire.Version {
		s.fail(w, fmt.Errorf("%w: fill request has v=%d", wire.ErrVersion, doc.V))
		return
	}
	req, err := wire.DecodeRequest(doc.Request)
	if err != nil {
		s.fail(w, fmt.Errorf("fill request document: %w", err))
		return
	}
	plan, err := wire.DecodePlan(doc.Plan)
	if err != nil {
		s.fail(w, fmt.Errorf("fill plan document: %w", err))
		return
	}
	// Re-canonicalize rather than trust the raw bytes: a RawMessage cut
	// from an indented outer document carries shifted indentation, and
	// the cache must store exactly what its own encoder would emit
	// (decode→re-encode of a canonical document is byte-identical).
	rendered, err := wire.Marshal(plan)
	if err != nil {
		s.fail(w, err)
		return
	}
	// A request that does not encode has no content address to keep
	// the plan under.
	canonical, err := wire.EncodeRequest(req)
	if err == nil {
		s.cache.Fill(cluster.Key(canonical), rendered)
		if s.store != nil {
			// A back-fill is sent to the key's ring owner, so it belongs
			// in this replica's shard of the store.
			s.store.Persist(req, canonical, rendered, nil)
		}
		s.fillsRecvN.Add(1)
	}
	s.replyDoc(w, wire.FillAckDoc{V: wire.Version, Stored: err == nil})
}

// ---------------------------------------------------------------------------
// membership: GET /v1/cluster/members, POST /v1/cluster/join|leave

// membersDoc snapshots this replica's membership view.
func (s *Server) membersDoc() wire.MembersDoc {
	return wire.MembersDoc{
		V:           wire.Version,
		Self:        s.node.Self(),
		Members:     s.node.Members(),
		RingVersion: s.node.Version(),
	}
}

// errNotClustered answers cluster membership calls on a standalone
// replica.
func errNotClustered() error {
	return fmt.Errorf("%w: this replica is not clustered (start serve with -self)", wire.ErrMalformed)
}

func (s *Server) handleClusterMembers(w http.ResponseWriter, r *http.Request) {
	defer s.track("clustermembers")()
	if !s.clustered() {
		s.fail(w, errNotClustered())
		return
	}
	s.replyDoc(w, s.membersDoc())
}

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	defer s.track("clusterjoin")()
	s.memberOp(w, r, true)
}

func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	defer s.track("clusterleave")()
	s.memberOp(w, r, false)
}

// memberOp applies one membership change and answers the resulting
// view. Changes propagate at most one hop (forwarded copies carry
// Propagate=false), so an announcement reaches every member without
// ever echoing.
func (s *Server) memberOp(w http.ResponseWriter, r *http.Request, join bool) {
	if !s.clustered() {
		s.fail(w, errNotClustered())
		return
	}
	body, release, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	var doc wire.MemberOpDoc
	err = wire.Unmarshal(body, &doc, "membership request")
	release()
	if err != nil {
		s.fail(w, err)
		return
	}
	if doc.V != wire.Version {
		s.fail(w, fmt.Errorf("%w: membership request has v=%d", wire.ErrVersion, doc.V))
		return
	}
	ep := cluster.Normalize(doc.Endpoint)
	if ep == "" {
		s.fail(w, fmt.Errorf("%w: membership request names no endpoint", wire.ErrMalformed))
		return
	}
	var changed bool
	if join {
		changed = s.node.Join(ep)
	} else {
		changed = s.node.Leave(ep)
	}
	if changed && doc.Propagate {
		s.propagate(ep, join)
	}
	s.replyDoc(w, s.membersDoc())
}

// propagate forwards a membership change to every other known member,
// asynchronously and with Propagate off.
func (s *Server) propagate(ep string, join bool) {
	members := s.node.Members()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.jobsWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.jobsWG.Done()
		ctx, cancel := context.WithTimeout(s.jobsCtx, backfillTimeout)
		defer cancel()
		for _, m := range members {
			if m == s.node.Self() || m == ep {
				continue
			}
			var err error
			if join {
				_, err = s.peer(m).ClusterJoin(ctx, ep, false)
			} else {
				_, err = s.peer(m).ClusterLeave(ctx, ep, false)
			}
			if err != nil {
				s.peerErrsN.Add(1)
			}
		}
	}()
}

// JoinCluster announces this replica to each seed and merges the
// members they answer with, so one reachable seed teaches the joiner
// the whole cluster (and, via propagation, the whole cluster about
// the joiner). It errors only when seeds were given and none answered.
func (s *Server) JoinCluster(ctx context.Context, seeds []string) error {
	if !s.clustered() {
		return errors.New("service: JoinCluster on a standalone replica (set Config.Self)")
	}
	var lastErr error
	joined := 0
	for _, seed := range seeds {
		seed = cluster.Normalize(seed)
		if seed == "" || seed == s.node.Self() {
			continue
		}
		doc, err := s.peer(seed).ClusterJoin(ctx, s.node.Self(), true)
		if err != nil {
			lastErr = err
			continue
		}
		joined++
		s.node.Join(seed)
		for _, m := range doc.Members {
			s.node.Join(cluster.Normalize(m))
		}
	}
	if joined == 0 && lastErr != nil {
		return fmt.Errorf("service: joining cluster: %w", lastErr)
	}
	return nil
}

// LeaveCluster announces this replica's departure to every member,
// best-effort. Local state is untouched: in-flight jobs and streams
// keep running, the replica just stops receiving newly routed keys.
func (s *Server) LeaveCluster(ctx context.Context) {
	if !s.clustered() {
		return
	}
	for _, m := range s.node.Members() {
		if m == s.node.Self() {
			continue
		}
		if _, err := s.peer(m).ClusterLeave(ctx, s.node.Self(), true); err != nil {
			s.peerErrsN.Add(1)
		}
	}
}

// Members snapshots this replica's member view (nil when standalone) —
// a test and operator accessor; the wire form is /v1/cluster/members.
func (s *Server) Members() []string {
	if !s.clustered() {
		return nil
	}
	return s.node.Members()
}
