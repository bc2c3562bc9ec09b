//! A shard whose primary stalls or fails holds up no other shard, and
//! is hedged or failed over on time, wherever the trouble falls: before
//! the query is sent, inside the answer frame, or in a primary that
//! drops its connection while the router waits on another shard. Every
//! replica sits behind a TCP relay that can hold back its answers, fail
//! a request, and stamps every dial, so the tests can see when the
//! router reached each replica.

use lasagna_repro::faultsim::{self, FaultPlan, Faults};
use lasagna_repro::obs::{self, Recorder};
use lasagna_repro::prelude::*;
use lasagna_repro::qnet::{ClientConfig, Server, ServerConfig};
use lasagna_repro::qrouter::{ClusterManifest, Router, RouterConfig};
use lasagna_repro::qserve::{
    ContigStore, Hit, IndexConfig, MinimizerIndex, QueryConfig, QueryEngine, QueryService,
    ServiceConfig,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The hedge delay of every shard (floor and ceiling alike).
const HEDGE_MS: u64 = 300;

/// Clean batches routed before the stall, so every pooled connection is
/// live and the scatter writes from the calling thread.
const WARMUP: usize = 3;

/// A TCP relay in front of one replica: requests pass until the relay
/// is told to fail, answers pass while its byte budget lasts, and every
/// dial is stamped.
struct Relay {
    addr: String,
    state: Arc<RelayState>,
}

#[derive(Default)]
struct RelayState {
    /// Answer bytes still allowed through; `usize::MAX` is no limit.
    budget: AtomicUsize,
    /// Close the connection a little after the next request arrives.
    fail: AtomicBool,
    dials: Mutex<Vec<Instant>>,
}

impl Relay {
    fn start(upstream: SocketAddr) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let state = Arc::new(RelayState::default());
        state.budget.store(usize::MAX, Ordering::SeqCst);
        let shared = Arc::clone(&state);
        thread::spawn(move || {
            for client in listener.incoming() {
                let Ok(client) = client else { return };
                shared.dials.lock().unwrap().push(Instant::now());
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                let (c, s) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                pipe(c, s, Arc::clone(&shared), false);
                pipe(server, client, Arc::clone(&shared), true);
            }
        });
        Relay { addr, state }
    }

    /// Let `bytes` more answer bytes through, then hold the rest back.
    fn hold_answers_after(&self, bytes: usize) {
        self.state.budget.store(bytes, Ordering::SeqCst);
    }

    /// Answer the next request by closing its connection, 20 ms after
    /// it arrives: long after the router has begun to wait.
    fn fail_next_request(&self) {
        self.state.fail.store(true, Ordering::SeqCst);
    }

    /// The first dial at or after `since`.
    fn dialed_since(&self, since: Instant) -> Option<Instant> {
        let dials = self.state.dials.lock().unwrap();
        dials.iter().copied().find(|&t| t >= since)
    }
}

/// Copy `from` into `to` on a thread of its own until either side
/// closes, then close `to` for writing. Answer bytes past the relay's
/// budget are held back with both sockets left open; a request that
/// arrives while the relay is told to fail closes both sockets instead.
fn pipe(mut from: TcpStream, mut to: TcpStream, state: Arc<RelayState>, answers: bool) {
    thread::spawn(move || {
        let mut buf = [0u8; 4096];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            if !answers && state.fail.swap(false, Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(20));
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
            let pass = if answers { spend(&state.budget, n) } else { n };
            if to.write_all(&buf[..pass]).is_err() {
                break;
            }
            if pass < n {
                thread::sleep(Duration::from_secs(30));
                return;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    });
}

/// Take up to `n` bytes from `budget`; returns how many it had.
fn spend(budget: &AtomicUsize, n: usize) -> usize {
    let had = budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
            Some(if b == usize::MAX { b } else { b - b.min(n) })
        })
        .unwrap();
    had.min(n)
}

/// Two shards of two replicas over one random contig, every replica
/// behind a relay. Replica `r` of shard `s` is at index `2 * s + r`.
/// Shard 0's ladder starts at its replica 0, shard 1's at its replica 1.
struct Cluster {
    servers: Vec<Server>,
    relays: Vec<Relay>,
    manifest: ClusterManifest,
    batch: Vec<PackedSeq>,
    expected: Vec<Option<Hit>>,
}

impl Cluster {
    fn start() -> Cluster {
        let mut rng = stdx::SplitMix64::new(47);
        let contig = PackedSeq::from_codes(&rng.vec(20_000..20_001, |r| r.below(4) as u8));
        let store = || ContigStore::from_contigs(vec![contig.clone()]);
        let rec = Recorder::disabled();
        let mut manifest = ClusterManifest::new(2, store().checksum());
        let (mut servers, mut relays) = (Vec::new(), Vec::new());
        for shard in 0..2 {
            let index = MinimizerIndex::build_shard(&store(), &IndexConfig::default(), shard, 2);
            for _ in 0..2 {
                let engine = QueryEngine::new(store(), index.clone(), QueryConfig::default());
                let service = QueryService::start(engine.unwrap(), ServiceConfig::default(), &rec);
                let server =
                    Server::start(service, ServerConfig::default(), &rec, Faults::disabled())
                        .unwrap();
                let relay = Relay::start(server.local_addr());
                manifest.add_replica(shard, relay.addr.clone());
                servers.push(server);
                relays.push(relay);
            }
        }
        let batch: Vec<PackedSeq> = (0..32).map(|i| contig.slice(i * 601, 100)).collect();
        let full = MinimizerIndex::build(&store(), &IndexConfig::default());
        let oracle = QueryEngine::new(store(), full, QueryConfig::default()).unwrap();
        let expected = batch.iter().map(|r| oracle.query(r)).collect();
        Cluster {
            servers,
            relays,
            manifest,
            batch,
            expected,
        }
    }

    /// A router with every hedge delay pinned to [`HEDGE_MS`], warmed up
    /// by [`WARMUP`] clean batches.
    fn router(&self, rec: &Recorder, faults: Faults) -> Router {
        let cfg = RouterConfig {
            client: ClientConfig {
                backoff_base_ms: 1,
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                ..ClientConfig::default()
            },
            hedge_min_ms: HEDGE_MS,
            hedge_max_ms: HEDGE_MS,
            ..RouterConfig::default()
        };
        let router = Router::new(self.manifest.clone(), cfg, faults, rec).unwrap();
        for _ in 0..WARMUP {
            assert_eq!(router.route(&self.batch).unwrap(), self.expected);
        }
        router
    }

    /// Route the batch once; the answers must be the oracle's.
    fn route_timed(&self, router: &Router) -> Duration {
        let start = Instant::now();
        assert_eq!(router.route(&self.batch).unwrap(), self.expected);
        start.elapsed()
    }

    fn shutdown(mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}

fn counter_total(rec: &Recorder, name: &str) -> u64 {
    rec.flush();
    obs::Rollup::from_events(&rec.events())
        .totals()
        .counter(name)
}

#[test]
fn a_primary_stalled_before_its_send_is_hedged_while_the_other_shard_answers() {
    let cluster = Cluster::start();
    let rec = Recorder::new();
    // Each batch walks the slow failpoint once per shard, shard 0 first:
    // this arm stalls shard 0's primary in the first batch after warm-up.
    let nth = 2 * WARMUP as u64 + 1;
    let plan = FaultPlan::new().fail_at(faultsim::QROUTER_SHARD_SLOW, nth);
    let router = cluster.router(&rec, Faults::from_plan(&plan));

    let took = cluster.route_timed(&router);
    let stall = Duration::from_millis(2 * HEDGE_MS + 50);
    assert!(
        took < stall,
        "the batch took {took:?}: shard 1 or shard 0's hedge waited out the {stall:?} stall"
    );
    assert!(
        took >= Duration::from_millis(HEDGE_MS),
        "hedged early: {took:?}"
    );
    assert_eq!(counter_total(&rec, "qrouter.hedge.fired"), 1);
    assert_eq!(counter_total(&rec, "qrouter.hedge.won"), 1);
    cluster.shutdown();
}

#[test]
fn a_failing_primary_fails_over_without_waiting_for_another_shards_hedge() {
    let cluster = Cluster::start();
    let rec = Recorder::new();
    let router = cluster.router(&rec, Faults::disabled());
    // Shard 0's primary goes quiet, so the calling thread waits on it for
    // the whole hedge delay; shard 1's primary drops its connection
    // while that wait is on.
    cluster.relays[0].hold_answers_after(0);
    cluster.relays[3].fail_next_request();

    let start = Instant::now();
    cluster.route_timed(&router);
    let dialed = cluster.relays[2]
        .dialed_since(start)
        .expect("shard 1 fails over to its replica 0");
    let waited = dialed - start;
    assert!(
        waited < Duration::from_millis(HEDGE_MS / 2),
        "shard 1's fail-over dialled {waited:?} after the scatter: it waited on shard 0"
    );
    assert_eq!(counter_total(&rec, "qrouter.failover"), 1);
    assert_eq!(counter_total(&rec, "qrouter.hedge.fired"), 1);
    assert!(router.dead_letters().is_empty());
    cluster.shutdown();
}

#[test]
fn a_primary_that_stalls_inside_its_answer_frame_is_hedged() {
    let cluster = Cluster::start();
    let rec = Recorder::new();
    let router = cluster.router(&rec, Faults::disabled());
    // Five bytes of shard 0's next answer arrive, the rest never does.
    cluster.relays[0].hold_answers_after(5);

    let took = cluster.route_timed(&router);
    assert!(
        took < Duration::from_millis(3 * HEDGE_MS),
        "the batch took {took:?}: the torn answer was read under the read timeout"
    );
    assert_eq!(counter_total(&rec, "qrouter.hedge.fired"), 1);
    assert_eq!(counter_total(&rec, "qrouter.hedge.won"), 1);
    cluster.shutdown();
}
