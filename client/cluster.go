package client

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/wire"
)

// Cluster-facing calls. Replicas use these against each other through
// per-peer single-endpoint clients (the wire contract is the only
// inter-replica protocol); operators and tests use them to inspect and
// steer membership.

// PeerSolveRaw posts an already-canonical request document to
// /v1/cluster/solve — the peer-to-peer solve endpoint that always
// answers locally (it never forwards, so two replicas can never chase
// each other in a loop). It is a single attempt: the caller (the
// service's hedged forward) supplies its own redundancy, and retrying
// here would only delay its local fallback.
func (c *Client) PeerSolveRaw(ctx context.Context, canonical []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, "/v1/cluster/solve", canonical, false)
}

// PeerFill pushes a solved plan into a peer's cache (POST
// /v1/cluster/fill): request and plan are canonical wire documents. It
// reports whether the peer stored the document. Best effort, single
// attempt — a lost fill costs one future re-solve, nothing more.
func (c *Client) PeerFill(ctx context.Context, request, plan []byte) (bool, error) {
	body, err := wire.Marshal(wire.FillDoc{V: wire.Version, Request: request, Plan: plan})
	if err != nil {
		return false, fmt.Errorf("client: encoding fill: %w", err)
	}
	data, err := c.do(ctx, http.MethodPost, "/v1/cluster/fill", body, false)
	if err != nil {
		return false, err
	}
	var ack wire.FillAckDoc
	if err := wire.Unmarshal(data, &ack, "fill ack"); err != nil {
		return false, err
	}
	return ack.Stored, nil
}

// ClusterMembers fetches one replica's membership view (GET
// /v1/cluster/members).
func (c *Client) ClusterMembers(ctx context.Context) (wire.MembersDoc, error) {
	data, err := c.do(ctx, http.MethodGet, "/v1/cluster/members", nil, true)
	if err != nil {
		return wire.MembersDoc{}, err
	}
	var doc wire.MembersDoc
	if err := wire.Unmarshal(data, &doc, "members"); err != nil {
		return wire.MembersDoc{}, err
	}
	return doc, nil
}

// ClusterJoin announces endpoint as a cluster member (POST
// /v1/cluster/join) and returns the receiver's resulting membership
// view — a joining replica merges it to learn the whole cluster from
// one seed. propagate asks the receiver to forward the announcement to
// every member it knows. Membership changes are idempotent, so the
// call retries like any other.
func (c *Client) ClusterJoin(ctx context.Context, endpoint string, propagate bool) (wire.MembersDoc, error) {
	return c.memberOp(ctx, "/v1/cluster/join", endpoint, propagate)
}

// ClusterLeave announces that endpoint is leaving the cluster (POST
// /v1/cluster/leave); the ring re-shards without it. In-flight jobs
// and streams on the leaver keep running — leaving only stops new keys
// from routing there.
func (c *Client) ClusterLeave(ctx context.Context, endpoint string, propagate bool) (wire.MembersDoc, error) {
	return c.memberOp(ctx, "/v1/cluster/leave", endpoint, propagate)
}

// memberOp posts one membership change and decodes the answered view.
func (c *Client) memberOp(ctx context.Context, path, endpoint string, propagate bool) (wire.MembersDoc, error) {
	body, err := wire.Marshal(wire.MemberOpDoc{
		V:         wire.Version,
		Endpoint:  cluster.Normalize(endpoint),
		Propagate: propagate,
	})
	if err != nil {
		return wire.MembersDoc{}, fmt.Errorf("client: encoding membership op: %w", err)
	}
	data, err := c.do(ctx, http.MethodPost, path, body, true)
	if err != nil {
		return wire.MembersDoc{}, err
	}
	var doc wire.MembersDoc
	if err := wire.Unmarshal(data, &doc, "members"); err != nil {
		return wire.MembersDoc{}, err
	}
	return doc, nil
}

// RefreshMembers re-reads the cluster's membership from whichever
// endpoint answers first and re-points the client at it: the endpoint
// set and routing ring are swapped atomically, so a client configured
// with one seed follows the cluster as replicas join and leave.
// In-flight calls finish on the ring they started with; pinned job
// handles keep their replica.
func (c *Client) RefreshMembers(ctx context.Context) error {
	doc, err := c.ClusterMembers(ctx)
	if err != nil {
		return err
	}
	eps := make([]string, 0, len(doc.Members))
	for _, m := range doc.Members {
		if m = cluster.Normalize(m); m != "" {
			eps = append(eps, m)
		}
	}
	if len(eps) == 0 {
		return fmt.Errorf("%w: members document names no endpoints", wire.ErrMalformed)
	}
	c.mu.Lock()
	c.endpoints = eps
	c.ring = cluster.NewRing(eps)
	c.mu.Unlock()
	return nil
}
