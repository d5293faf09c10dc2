// Package fabric is the cluster layer that shards the msfud evaluation
// service horizontally: it consistent-hashes the store's canonical
// config key (store.Key) across N named nodes, routes point evaluations
// to the owning node, and backs the sweep engine's peer tier (it
// implements sweep.Peers) — on a local miss the record is fetched from
// its owner over HTTP before anything is recomputed.
//
// Robustness is the package's first concern, because a cluster is only
// useful if a dead or partitioned peer degrades service instead of
// failing requests:
//
//   - Peer calls go through the retrying internal/httpclient (jittered
//     backoff, Retry-After honored) under a per-call timeout.
//   - Every peer has a circuit breaker: consecutive failures open it,
//     open breakers skip the peer outright, and after a cooldown a
//     single half-open probe (live traffic or the background prober)
//     decides whether it closes again.
//   - Whenever the owner is unreachable, slow, or serves bad bytes, the
//     caller falls back to computing the point locally. Correctness
//     never depends on the fabric: records are content-addressed, every
//     payload crossing the wire carries its SHA-256 and is re-hashed on
//     receipt, and a digest or key mismatch is treated exactly like a
//     dead peer.
//   - Freshly computed records a node owns are replicated best-effort
//     and asynchronously to the next node on the ring, so a restarted
//     peer warms back up from its neighbor.
//
// The package also carries the peer-layer fault-injection plan
// (-fault-peer: drop, stall and corrupt schedules) so partition,
// slow-peer and corrupt-record paths are deterministically testable,
// mirroring the store's -fault-store grammar.
package fabric
