//! Router-facing connection pooling with per-replica backoff state.
//!
//! The scatter-gather router (`qrouter`) talks to many replicas at
//! once, hedges slow ones with a second concurrent request, and backs
//! off replicas that keep failing. That workload needs two things a
//! bare [`QueryClient`] does not provide:
//!
//! * **Checkout/checkin pooling** — a hedge races two requests against
//!   the *same shard*, sometimes the same replica; each in-flight
//!   request needs its own connection so a late loser's bytes can
//!   never desynchronize the winner's stream. [`ClientPool::checkout`]
//!   hands out an idle pooled client or mints a fresh one; `checkin`
//!   returns it for reuse (bounded idle set, so a burst doesn't pin
//!   sockets forever).
//! * **Per-replica failure accounting** — the router's fail-over
//!   ladder walks replicas with a capped jittered exponential backoff
//!   (the shape of `dnet`'s recovery backoff and the client's own
//!   retry backoff). The pool keeps the consecutive-failure count per
//!   replica address, reset on any success, so "how hard should I back
//!   off from this replica" is one lookup.
//!
//! The pool never retries on its own: pooled clients are configured
//! with `max_retries: 0` (each call is exactly one wire attempt), and
//! the router decides what a failure means — hedge, fail over, or give
//! the shard up as dead.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::client::{ClientConfig, QueryClient};
use obs::Recorder;

/// Idle connections kept per replica address; checkouts beyond this
/// mint fresh clients, checkins beyond it drop the returned client
/// (closing its socket).
const MAX_IDLE_PER_ADDR: usize = 4;

/// Per-replica state: idle clients ready for checkout plus the
/// consecutive-failure count driving the router's backoff ladder.
#[derive(Default)]
struct AddrState {
    idle: Vec<QueryClient>,
    consecutive_failures: u32,
}

/// A pool of [`QueryClient`]s keyed by replica address.
pub struct ClientPool {
    template: ClientConfig,
    rec: Recorder,
    state: Mutex<HashMap<String, AddrState>>,
}

impl ClientPool {
    /// Create a pool. `template` supplies everything except the
    /// address (`client_id`, deadline, timeouts); its
    /// `max_retries` is forced to 0 so every pooled call is a single
    /// wire attempt under the router's control.
    pub fn new(template: ClientConfig, rec: &Recorder) -> ClientPool {
        let template = ClientConfig {
            max_retries: 0,
            ..template
        };
        ClientPool {
            template,
            rec: rec.clone(),
            state: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, AddrState>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a client for `addr`: a pooled idle one if available, a
    /// fresh (lazily-connecting) one otherwise. Always returns — the
    /// connection is only attempted on first use.
    pub fn checkout(&self, addr: &str) -> QueryClient {
        if let Some(client) = self.lock().get_mut(addr).and_then(|s| s.idle.pop()) {
            return client;
        }
        let cfg = ClientConfig {
            addr: addr.to_string(),
            ..self.template.clone()
        };
        QueryClient::new(cfg, &self.rec)
    }

    /// Return a client to `addr`'s idle set. Beyond
    /// [`MAX_IDLE_PER_ADDR`] the client is dropped instead, closing
    /// its socket.
    pub fn checkin(&self, addr: &str, client: QueryClient) {
        let mut state = self.lock();
        let s = state.entry(addr.to_string()).or_default();
        if s.idle.len() < MAX_IDLE_PER_ADDR {
            s.idle.push(client);
        }
    }

    /// Record one attempt's outcome against `addr` and return the
    /// consecutive-failure count after it (0 after any success).
    pub fn record_outcome(&self, addr: &str, ok: bool) -> u32 {
        let mut state = self.lock();
        let s = state.entry(addr.to_string()).or_default();
        if ok {
            s.consecutive_failures = 0;
        } else {
            s.consecutive_failures = s.consecutive_failures.saturating_add(1);
        }
        s.consecutive_failures
    }

    /// Consecutive failures recorded against `addr` (0 if never seen).
    pub fn consecutive_failures(&self, addr: &str) -> u32 {
        self.lock()
            .get(addr)
            .map(|s| s.consecutive_failures)
            .unwrap_or(0)
    }

    /// Backoff before retry `round` (1-based) against `addr`: the
    /// client's capped jittered exponential backoff
    /// ([`ClientConfig::backoff_ms`]), salted with the address so
    /// fail-over sweeps across replicas don't stampede one survivor.
    pub fn backoff_ms(&self, addr: &str, round: u32) -> u64 {
        self.template.backoff_ms(addr, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ClientPool {
        let rec = Recorder::disabled();
        ClientPool::new(
            ClientConfig {
                backoff_base_ms: 100,
                backoff_cap_rounds: 4,
                jitter_seed: 7,
                max_retries: 9, // overridden to 0 by the pool
                ..ClientConfig::default()
            },
            &rec,
        )
    }

    #[test]
    fn checkout_reuses_checked_in_clients_and_bounds_the_idle_set() {
        let p = pool();
        let addr = "127.0.0.1:9999";
        // Mint, return, and re-take: the idle set grows then drains.
        let clients: Vec<QueryClient> = (0..6).map(|_| p.checkout(addr)).collect();
        for c in clients {
            p.checkin(addr, c);
        }
        assert_eq!(p.lock().get(addr).unwrap().idle.len(), MAX_IDLE_PER_ADDR);
        let _again = p.checkout(addr);
        assert_eq!(
            p.lock().get(addr).unwrap().idle.len(),
            MAX_IDLE_PER_ADDR - 1
        );
    }

    #[test]
    fn pooled_clients_never_retry_on_their_own() {
        let p = pool();
        let c = p.checkout("127.0.0.1:9999");
        assert_eq!(c.config().max_retries, 0);
    }

    #[test]
    fn failure_accounting_resets_on_success() {
        let p = pool();
        let addr = "10.0.0.1:4000";
        assert_eq!(p.consecutive_failures(addr), 0);
        assert_eq!(p.record_outcome(addr, false), 1);
        assert_eq!(p.record_outcome(addr, false), 2);
        assert_eq!(p.record_outcome(addr, true), 0);
        assert_eq!(p.consecutive_failures(addr), 0);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_desynchronized_across_replicas() {
        let p = pool();
        for round in 1..=8 {
            assert_eq!(
                p.backoff_ms("a:1", round),
                p.backoff_ms("a:1", round),
                "deterministic"
            );
            let exp = (round - 1).min(4);
            let full = 100u64 << exp;
            let got = p.backoff_ms("a:1", round);
            assert!(got >= full / 2 && got < full, "round {round}: {got}");
        }
        // Different replicas jitter differently at the same round, so a
        // shard-wide fail-over doesn't retry in lockstep.
        assert_ne!(p.backoff_ms("a:1", 3), p.backoff_ms("b:2", 3));
    }
}
