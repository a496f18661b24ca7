//! The admin endpoint: the daemon's HTTP/1.1 observability routes.
//!
//! GET-only, `Connection: close`, one request per connection. The listener
//! — accept loop, head parsing under a size cap and a deadline, the answers
//! to hostile heads — is [`avoc_obs::http::Server`], shared with the
//! gateway; this module is the daemon's routing table. Off by default;
//! [`crate::TcpServer`] starts it when [`crate::ServeConfig::admin_addr`] is
//! set.
//!
//! Routes:
//!
//! * `/healthz` — health: `200 ok` when every domain is healthy, `503`
//!   with a JSON body naming the degraded domains and reasons otherwise
//!   (memory-only persistence, paused accept, …).
//! * `/metrics` — the full registry in Prometheus text exposition;
//!   `?format=json` renders the same cells as one JSON object. It is the
//!   daemon's one scrape surface; in process, `VoterService::counters()`
//!   copies the same cells.
//! * `/sessions` — live sessions: id, shard pin, resumability, rounds fused.
//! * `/segments` — the segment tier: live segment files (seq, generation,
//!   bytes, rows) and lifetime compaction statistics.
//! * `/trace` — sampled pipeline spans, oldest first; `?session=<id>`
//!   filters to one tenant.
//!
//! Hostile input never panics the daemon: oversized requests get `431`,
//! non-GET methods `405`, malformed heads `400`, unknown paths `404`.

use crate::service::VoterService;

/// Maps a parsed request to `(status, content type, body)`.
pub(crate) fn route(
    req: &avoc_obs::http::Request<'_>,
    service: &VoterService,
) -> (u16, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    const JSON: &str = "application/json";
    match req.path() {
        // Healthy daemons answer the legacy `200 ok` byte-for-byte; a
        // degraded one fails the check with `503` and machine-readable
        // per-domain reasons, so load balancers and operators read the
        // same signal.
        "/healthz" => {
            let health = service.health();
            if health.is_ok() {
                (200, TEXT, "ok\n".to_string())
            } else {
                (health.status_code(), JSON, health.render_json())
            }
        }
        "/metrics" => {
            if req.query_param("format") == Some("json") {
                (200, JSON, service.obs_registry().render_json())
            } else {
                (200, PROM, service.obs_registry().render_prometheus())
            }
        }
        // `?scope=durable` lists the ids with durable state this node owns
        // (a flat id array) — what a draining gateway unions with its
        // placement table; the default is the live in-memory view.
        "/sessions" => {
            if req.query_param("scope") == Some("durable") {
                (200, JSON, service.durable_sessions_json())
            } else {
                (200, JSON, service.sessions_json())
            }
        }
        "/segments" => (200, JSON, service.segments_json()),
        "/trace" => {
            let session = req
                .query_param("session")
                .and_then(|v| v.parse::<u64>().ok());
            if req.query_param("session").is_some() && session.is_none() {
                return (400, TEXT, "bad session id\n".to_string());
            }
            (200, JSON, service.trace().render_json(session))
        }
        _ => (404, TEXT, "not found\n".to_string()),
    }
}
