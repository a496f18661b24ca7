//! The daemon's health plane: per-domain degradation state with reasons.
//!
//! Counters say *how much* went wrong; health says *what is wrong right
//! now*. Subsystems (persistence, the segment tier, the accept path) each
//! own a named domain and move it between [`HealthLevel::Ok`],
//! [`HealthLevel::Degraded`] and [`HealthLevel::Critical`] as they enter
//! and leave trouble; the worst domain decides the aggregate, and the
//! admin `/healthz` route turns a non-`Ok` aggregate into `503` with the
//! machine-readable reasons in the body — so a load balancer and an
//! operator read the same signal.
//!
//! A [`Health`] handle is a cheap `Arc` clone. Updates take a short lock;
//! they happen on state *transitions* (entering/leaving degraded mode,
//! quarantining a segment), never on per-reading hot paths.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How sick a domain (or the whole daemon) is. Ordered: later variants are
/// worse, and the aggregate is the maximum across domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthLevel {
    /// Operating normally.
    #[default]
    Ok,
    /// Running with reduced guarantees (e.g. memory-only persistence);
    /// still serving, recovery is being attempted.
    Degraded,
    /// A domain is down hard and not expected to self-heal.
    Critical,
}

impl HealthLevel {
    /// The wire spelling used in `/healthz` JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthLevel::Ok => "ok",
            HealthLevel::Degraded => "degraded",
            HealthLevel::Critical => "critical",
        }
    }
}

#[derive(Debug, Clone)]
struct Domain {
    level: HealthLevel,
    reason: String,
}

/// Shared health state: named domains, each with a level and a reason.
///
/// Clones share the same map (it is an `Arc` inside), so every subsystem
/// holds the same handle the admin endpoint renders.
#[derive(Debug, Clone, Default)]
pub struct Health {
    domains: Arc<Mutex<BTreeMap<String, Domain>>>,
}

impl Health {
    /// A fresh, all-healthy handle.
    pub fn new() -> Health {
        Health::default()
    }

    /// Marks `domain` at `level` with `reason`. Setting
    /// [`HealthLevel::Ok`] removes the domain — healthy domains carry no
    /// entry, so `/healthz` bodies list only what is wrong.
    pub fn set(&self, domain: &str, level: HealthLevel, reason: &str) {
        let mut map = self.domains.lock();
        if level == HealthLevel::Ok {
            map.remove(domain);
        } else {
            map.insert(
                domain.to_string(),
                Domain {
                    level,
                    reason: reason.to_string(),
                },
            );
        }
    }

    /// Returns `domain` to healthy (idempotent).
    pub fn clear(&self, domain: &str) {
        self.domains.lock().remove(domain);
    }

    /// The aggregate level: the worst across all domains (`Ok` when every
    /// domain is healthy).
    fn level(&self) -> HealthLevel {
        self.domains
            .lock()
            .values()
            .map(|d| d.level)
            .max()
            .unwrap_or(HealthLevel::Ok)
    }

    /// Whether every domain is healthy.
    pub fn is_ok(&self) -> bool {
        self.level() == HealthLevel::Ok
    }

    /// The HTTP status `/healthz` should answer with: `200` healthy,
    /// `503` otherwise (degraded daemons must fail load-balancer checks).
    pub fn status_code(&self) -> u16 {
        if self.is_ok() {
            200
        } else {
            503
        }
    }

    /// The machine-readable `/healthz` body for a non-healthy daemon:
    /// aggregate status plus one entry per sick domain, sorted by name.
    pub fn render_json(&self) -> String {
        let map = self.domains.lock();
        let status = map
            .values()
            .map(|d| d.level)
            .max()
            .unwrap_or(HealthLevel::Ok);
        let domains: Vec<String> = map
            .iter()
            .map(|(name, d)| {
                format!(
                    "{{\"domain\": \"{}\", \"level\": \"{}\", \"reason\": \"{}\"}}",
                    escape(name),
                    d.level.as_str(),
                    escape(&d.reason)
                )
            })
            .collect();
        format!(
            "{{\"status\": \"{}\", \"domains\": [{}]}}\n",
            status.as_str(),
            domains.join(", ")
        )
    }
}

/// Minimal JSON string escaping for domain names and reasons (internal
/// strings, but a reason may quote an `io::Error`).
fn escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_health_is_ok() {
        let h = Health::new();
        assert!(h.is_ok());
        assert_eq!(h.level(), HealthLevel::Ok);
        assert_eq!(h.status_code(), 200);
        assert_eq!(h.render_json(), "{\"status\": \"ok\", \"domains\": []}\n");
    }

    #[test]
    fn worst_domain_wins_and_clears_restore_ok() {
        let h = Health::new();
        let peer = h.clone();
        h.set("persistence", HealthLevel::Degraded, "disk full");
        assert_eq!(peer.level(), HealthLevel::Degraded, "clones share state");
        assert_eq!(h.status_code(), 503);
        h.set("segments", HealthLevel::Critical, "tier lost");
        assert_eq!(h.level(), HealthLevel::Critical);
        let json = h.render_json();
        assert!(json.contains("\"status\": \"critical\""));
        assert!(json.contains("\"domain\": \"persistence\""));
        assert!(json.contains("\"reason\": \"disk full\""));
        h.clear("segments");
        assert_eq!(h.level(), HealthLevel::Degraded);
        // Setting Ok is the same as clearing.
        h.set("persistence", HealthLevel::Ok, "");
        assert!(h.is_ok());
    }

    #[test]
    fn reasons_are_json_escaped() {
        let h = Health::new();
        h.set(
            "persistence",
            HealthLevel::Degraded,
            "wal: \"quota\"\nexceeded\\",
        );
        let json = h.render_json();
        assert!(json.contains("wal: \\\"quota\\\"\\nexceeded\\\\"));
        // Still parseable by the serde_json shim the workspace tests use.
        assert!(json.ends_with("]}\n"));
    }
}
