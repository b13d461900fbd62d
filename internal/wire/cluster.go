package wire

import "encoding/json"

// Cluster documents: the versioned wire contract is the ONLY
// inter-replica protocol (see DESIGN.md, "Cluster"), so membership,
// peer solves and cache back-fill all travel as documents defined
// here, exchanged through the exported client SDK. /v1/cluster/solve
// reuses the plain Request/Plan documents; the shapes below cover
// membership and fill.

// MembersDoc describes one replica's view of the cluster: its own
// advertised endpoint, the sorted member set (self included), and the
// count of membership changes this replica has applied (a per-node
// monotonic version, not a cluster-wide consensus value).
type MembersDoc struct {
	V           int      `json:"v"`
	Self        string   `json:"self"`
	Members     []string `json:"members"`
	RingVersion int64    `json:"ring_version"`
}

// MemberOpDoc asks a replica to apply a membership change (POST
// /v1/cluster/join or /v1/cluster/leave). Propagate asks the receiver
// to forward the change to every other member it knows; forwarded
// copies travel with Propagate=false so a change visits each replica
// at most twice and can never echo forever.
type MemberOpDoc struct {
	V         int    `json:"v"`
	Endpoint  string `json:"endpoint"`
	Propagate bool   `json:"propagate,omitempty"`
}

// FillDoc pushes a solved plan into a peer's cache (POST
// /v1/cluster/fill): the canonical request document it answers and the
// canonical plan document itself. The receiver re-canonicalizes both
// (round-tripping the canonical encoding is byte-stable), so the
// stored rendering is identical to what the receiver's own encoder
// would have produced.
type FillDoc struct {
	V       int             `json:"v"`
	Request json.RawMessage `json:"request"`
	Plan    json.RawMessage `json:"plan"`
}

// FillAckDoc answers a fill: whether the document was stored. It is
// false only when the request does not encode, and so has no content
// address to store the plan under; wire v1 keeps the field.
type FillAckDoc struct {
	V      int  `json:"v"`
	Stored bool `json:"stored"`
}
