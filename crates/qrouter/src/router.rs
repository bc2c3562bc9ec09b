//! The scatter-gather router: fan a batch out to every shard, hedge
//! slow shards, fail over dead replicas, and merge candidates into the
//! exact answer a single-node server would have produced.
//!
//! # Why candidates and not hits
//!
//! Each shard holds a *slice of the minimizer postings* over the same
//! contig store, so a shard's local vote counts are partial: a read's
//! true placement may collect 3 votes on shard 0 and 2 on shard 1.
//! Shards therefore return every voted candidate (unfiltered,
//! untruncated), the router sums votes per placement with
//! [`qserve::merge_candidates`], and replays single-node selection with
//! [`qserve::select_hit`] under the caller's [`qserve::QueryConfig`].
//! Because the postings partition is exact ([`qserve::shard_of_hash`]),
//! merged votes equal single-node votes and the final tie-break is
//! byte-identical — the invariant `tests/qrouter_cluster.rs` pins.
//!
//! # Scatter and gather on the calling thread
//!
//! [`Router::route`] writes every shard's query from the thread that
//! called it, each on its own pooled connection, before it reads any
//! answer; the shards then work in parallel while that thread gathers
//! their answers. A batch whose primaries all answer within their hedge
//! delays starts no thread. Nothing on the calling thread blocks on one
//! shard for long:
//!
//! * a primary is written there only if its pooled client holds a live
//!   connection whose socket takes the whole frame at once; one that
//!   needs a dial (or is stalled by the `qrouter.shard.slow` failpoint)
//!   is sent from a racer thread, where the hedge delay still runs;
//! * an answer counts as in only when its whole frame has arrived
//!   ([`qnet::QueryClient::answer_ready`] keeps the bytes read so far),
//!   so one that stops mid-frame is late at its hedge delay like one
//!   that never started;
//! * while several answers are outstanding the thread waits on one
//!   socket for at most [`SWEEP`] before it looks at the others again.
//!
//! A shard whose primary fails or is late walks the rest of its ladder
//! on a thread of its own from the moment that is known, so one slow or
//! dead shard delays another's hedge or fail-over by at most [`SWEEP`].
//!
//! # Hedging
//!
//! A slow shard stalls the whole batch, so after a latency-driven delay
//! (a percentile of the shard's own recent round-trips, clamped to
//! `[hedge_min_ms, hedge_max_ms]`) the router fires a second request at
//! the next replica in the ladder and takes the first answer: the late
//! primary and the hedge each finish on a racer thread. The
//! loser's late answer is discarded by construction: each attempt runs
//! on its own pooled connection with its own `request_id` echo, so a
//! late frame can neither desynchronize the winner's stream nor be
//! accepted for the wrong batch. Cancellation is "stop listening", not
//! "reach into the socket" — safe because nothing is shared.
//!
//! # Fail-over ladder
//!
//! A failed attempt (transport error, torn frame, shed, drain) walks to
//! the next replica with a capped jittered backoff
//! ([`qnet::ClientPool::backoff_ms`], the shape of `dnet`'s recovery
//! backoff). Terminal errors — an expired deadline, a typed remote
//! failure — abort the ladder
//! immediately and surface as [`RouterError::Net`] naming the shard and
//! peer. A shard that exhausts every round is recorded as a
//! [`DeadLetter`] and surfaces as [`RouterError::ShardUnavailable`]
//! naming the shard, so callers see a typed failure rather than a hang.
//!
//! # Generations
//!
//! Merged votes are only meaningful when every shard answered over the
//! same postings build, so the router pins every attempt to one
//! store/index generation ([`qnet::client::QueryClient::set_generation_pin`],
//! seeded from [`ClusterManifest::generation`]) and checks the
//! generation echoed with each shard's candidates. A cross-shard
//! disagreement — possible only unpinned, mid-rollout — is
//! [`RouterError::GenerationSkew`], never a blended merge.
//! [`Router::rollout`] advances the cluster: replica-by-replica hot
//! `Reload`, pin flipped only after every replica acked, old generation
//! still resident everywhere until [`qserve`] retires it — so the swap
//! serves zero errors and sheds nothing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use faultsim::sched::{self, Deadline};
use faultsim::Faults;
use genome::PackedSeq;
use obs::{Histogram, Recorder};
use qnet::{ClientConfig, ClientPool, QnetError, QueryClient, SentQuery};
use qserve::{merge_candidates, select_hit, Candidate, Hit, QueryConfig};

use crate::manifest::ClusterManifest;
use crate::RouterError;

/// Round-trip samples a shard must accumulate before its latency
/// percentile drives the hedge delay; until then the delay is pinned to
/// `hedge_max_ms` so cold starts don't hedge on noise.
const HEDGE_WARMUP_SAMPLES: u64 = 8;

/// Which latency percentile of a shard's recent round-trips sets its
/// hedge delay: hedge when the primary is slower than its p95.
const HEDGE_PERCENTILE: f64 = 0.95;

/// Tuning for the router. `Default` is sized for the in-process
/// clusters the bench and tests run; production deployments mostly
/// tune `client` (deadline) and `hedge_max_ms`.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Template for pooled connections (address is filled per replica).
    /// Its `max_retries` is forcibly zeroed — the router's ladder, not
    /// the client, owns retries.
    pub client: ClientConfig,
    /// Selection config replayed over merged candidates; must match the
    /// config a single-node server would use for answers to compare.
    pub query: QueryConfig,
    /// Hedge delay floor in milliseconds.
    pub hedge_min_ms: u64,
    /// Hedge delay ceiling in milliseconds; also the delay used while a
    /// shard's latency history is still warming up.
    pub hedge_max_ms: u64,
    /// Fail-over rounds per shard before the batch is dead-lettered.
    /// Each round is one primary attempt plus at most one hedge.
    pub failover_rounds: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            client: ClientConfig::default(),
            query: QueryConfig::default(),
            hedge_min_ms: 2,
            hedge_max_ms: 200,
            failover_rounds: 3,
        }
    }
}

/// A batch a shard could not answer after exhausting every replica and
/// every fail-over round — kept so operators can see *which* work was
/// refused, not just a counter.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The shard that went unreachable.
    pub shard: u32,
    /// Reads in the refused batch.
    pub n_reads: usize,
    /// Wire attempts made (primaries plus hedges across all rounds).
    pub attempts: u32,
    /// Display of the last error seen before giving up.
    pub last_error: String,
}

/// A shard's answer: the generation it answered for, tagged so the
/// merge can refuse mixed-generation votes, and every voted candidate
/// per read.
type Tagged = (u64, Vec<Vec<Candidate>>);

/// How one round of a shard's ladder ended: the answer and whether the
/// hedge won it, or the error that ends the round.
type RoundResult = Result<(Tagged, bool), QnetError>;

/// While several shards' answers are outstanding, the calling thread
/// waits on one shard's socket for at most this long before it looks at
/// the others again, so a primary that fails starts its shard's
/// fail-over within this much of failing.
const SWEEP: Duration = Duration::from_millis(1);

/// A wire attempt whose shard query is written and whose answer is
/// unread, on a pooled client that no other attempt can touch.
struct InFlight {
    peer: String,
    client: QueryClient,
    sent: SentQuery,
    /// The generation the query is pinned to (`0` = active).
    pin: u64,
}

impl InFlight {
    /// Read the answer; blocks under the client's read timeout unless
    /// [`QueryClient::answer_ready`] said it is in. The client goes back
    /// to the pool only on success; a failed client's connection state
    /// is suspect and is dropped with it.
    fn finish(mut self, shared: &Shared) -> Result<Tagged, QnetError> {
        let pin = self.pin;
        let result = self
            .client
            .recv_shard_answer(self.sent)
            .and_then(|(answered, candidates)| {
                if pin != 0 && answered != pin {
                    // The wire contract says a pinned query is answered
                    // by that exact generation or refused typed; a
                    // different echo means the stream is lying about
                    // what served it — treat it like any other corrupt
                    // frame (the suspect connection drops with the
                    // client) and let the ladder try the next replica.
                    return Err(QnetError::Corrupt {
                        peer: self.peer.clone(),
                        detail: format!(
                            "answered generation {answered} for a batch pinned to {pin}"
                        ),
                    });
                }
                Ok((answered, candidates))
            });
        shared.pool.record_outcome(&self.peer, result.is_ok());
        if result.is_ok() {
            shared.pool.checkin(&self.peer, self.client);
        }
        result
    }
}

/// A round's primary that has not answered on the thread that started
/// it; the shard's own thread takes it from here.
enum Primary {
    /// Failed without an answer: an injected fault, or the write or the
    /// read failed.
    Failed(QnetError),
    /// Written, and its answer was not wholly in by the hedge delay.
    Late(Box<InFlight>),
    /// Not written: it needs a dial, its socket had no room, or the
    /// `qrouter.shard.slow` failpoint stalls it first (`stall`). A racer
    /// thread sends it, where blocking holds up nothing else.
    Unsent { stall: bool },
}

/// A round of a shard's ladder as it starts on the shard's own thread:
/// the first round as the scatter left it, or a fresh one.
struct RoundStart {
    started: Instant,
    hedge_at: Deadline,
    primary: Primary,
}

/// A shard whose primary the calling thread wrote, awaiting its answer
/// there until `hedge_at`.
struct Waiting {
    shard: u32,
    ladder: Vec<String>,
    started: Instant,
    hedge_at: Deadline,
    primary: InFlight,
}

/// One racer's report into a hedge race.
struct Outcome {
    attempt: u32,
    result: Result<Tagged, QnetError>,
}

/// Shared state between a shard's ladder and its two racers. The
/// mutex-protected vector is pollable (a pure lock-peek), which is what
/// lets the cooperative scheduler drive the race deterministically.
struct Race {
    outcomes: Mutex<Vec<Outcome>>,
    cv: Condvar,
}

impl Race {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Outcome>> {
        self.outcomes.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, o: Outcome) {
        self.lock().push(o);
        self.cv.notify_all();
    }

    /// Wait until a racer succeeded, all `launched` racers reported, or
    /// `until` passed; true unless the deadline ended the wait. `point`
    /// names the wait for the model checker.
    fn wait(&self, launched: usize, until: Option<Deadline>, point: &str) -> bool {
        let settled = |o: &Vec<Outcome>| o.iter().any(|o| o.result.is_ok()) || o.len() >= launched;
        sched::wait(point, &self.outcomes, &self.cv, until, settled).1
    }
}

/// Everything racer threads need, behind one `Arc` so hedge losers can
/// outlive the round (and the batch) that launched them.
struct Shared {
    cfg: RouterConfig,
    pool: ClientPool,
    faults: Faults,
    rec: Recorder,
}

/// The scatter-gather router over one [`ClusterManifest`].
pub struct Router {
    manifest: ClusterManifest,
    shared: Arc<Shared>,
    /// Per-shard round-trip history in ms, driving the hedge delay and
    /// the per-shard latency split published to the live rollup.
    latency: Vec<Mutex<Histogram>>,
    dead: Mutex<Vec<DeadLetter>>,
    /// Replica health from the last [`Router::probe_health`] sweep;
    /// unknown addresses are assumed healthy.
    health: Mutex<HashMap<String, bool>>,
    /// Distinguishes concurrent scatters in sched-mode task names.
    scatter_seq: AtomicU64,
    /// The generation every fan-out is pinned to (`0` = each replica's
    /// active). Seeded from the manifest; advanced by [`Router::rollout`]
    /// only after every replica acked the new generation, so in-flight
    /// scatters never straddle the flip.
    pinned_gen: AtomicU64,
}

impl Router {
    /// Build a router over a validated manifest. `faults` arms the
    /// `qrouter.*` failpoints (pass [`Faults::disabled`] outside chaos
    /// runs); counters and latency splits land on `rec`.
    pub fn new(
        manifest: ClusterManifest,
        cfg: RouterConfig,
        faults: Faults,
        rec: &Recorder,
    ) -> Result<Router, RouterError> {
        manifest.validate()?;
        let latency = (0..manifest.n_shards)
            .map(|_| Mutex::new(Histogram::new()))
            .collect();
        let pool = ClientPool::new(cfg.client.clone(), rec);
        let pinned = manifest.generation;
        Ok(Router {
            manifest,
            shared: Arc::new(Shared {
                cfg,
                pool,
                faults,
                rec: rec.clone(),
            }),
            latency,
            dead: Mutex::new(Vec::new()),
            health: Mutex::new(HashMap::new()),
            scatter_seq: AtomicU64::new(0),
            pinned_gen: AtomicU64::new(pinned),
        })
    }

    /// The manifest this router serves.
    pub fn manifest(&self) -> &ClusterManifest {
        &self.manifest
    }

    /// The generation every fan-out is currently pinned to (`0` = each
    /// replica's active generation).
    pub fn pinned_generation(&self) -> u64 {
        self.pinned_gen.load(Ordering::Relaxed)
    }

    /// Re-pin future fan-outs to `generation` directly, without a
    /// rollout — for operators replaying a manifest flip, and for tests.
    /// Scatters already in flight keep the pin they captured at launch.
    pub fn pin_generation(&self, generation: u64) {
        self.pinned_gen.store(generation, Ordering::Relaxed);
        self.shared.rec.counter("qrouter.gen.pinned", 1);
    }

    /// Batches refused after exhausting every replica of a shard.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.dead.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Answer a batch through the cluster: scatter to every shard,
    /// merge candidates per read, and select exactly as a single-node
    /// server would. Returns per-read placements aligned with `reads`.
    ///
    /// Fails as a whole if any shard fails: partial answers would be
    /// silently *wrong* answers (missing votes flip tie-breaks), so a
    /// shard outage is a typed error, never a degraded result.
    pub fn route(&self, reads: &[PackedSeq]) -> Result<Vec<Option<Hit>>, RouterError> {
        self.route_tagged(reads).map(|(_, hits)| hits)
    }

    /// [`route`](Self::route), also returning the generation every
    /// shard answered for. During a rollout window this is how callers
    /// observe which build served them; the router has already refused
    /// to merge if any two shards disagreed.
    pub fn route_tagged(
        &self,
        reads: &[PackedSeq],
    ) -> Result<(u64, Vec<Option<Hit>>), RouterError> {
        let pin = self.pinned_generation();
        if reads.is_empty() {
            return Ok((pin, Vec::new()));
        }
        let n_shards = self.manifest.n_shards as usize;
        let seq = self.scatter_seq.fetch_add(1, Ordering::Relaxed);

        type ShardSlot = Mutex<Option<Result<Tagged, RouterError>>>;
        let slots: Vec<ShardSlot> = (0..n_shards).map(|_| Mutex::new(None)).collect();
        let fill = |shard: u32, r| {
            *slots[shard as usize]
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = Some(r)
        };
        std::thread::scope(|scope| {
            // A shard whose primary cannot answer on this thread walks
            // the rest of its ladder (hedge race, fail-over) on a thread
            // of its own, from the moment that is known.
            let mut escalated = Vec::new();
            let mut escalate = |shard: u32, ladder: Vec<String>, first: RoundStart| {
                let name = format!("qrouter.s{shard}.q{seq}");
                escalated.push(sched::spawn_scoped(scope, &name, move || {
                    fill(
                        shard,
                        self.query_shard(shard, seq, pin, reads, &ladder, first),
                    )
                }));
            };

            // Scatter: every shard's primary that can leave without
            // blocking is written from this thread, each on its own
            // pooled connection, before any answer is read.
            let mut waiting = Vec::with_capacity(n_shards);
            for shard in 0..n_shards as u32 {
                let ladder = self.ladder(shard);
                let started = Instant::now();
                let hedge_at = Deadline::after_ms(self.hedge_delay_ms(shard));
                match launch(&self.shared, shard, pin, &ladder[0], reads) {
                    Ok(primary) => waiting.push(Waiting {
                        shard,
                        ladder,
                        started,
                        hedge_at,
                        primary,
                    }),
                    Err(primary) => escalate(
                        shard,
                        ladder,
                        RoundStart {
                            started,
                            hedge_at,
                            primary,
                        },
                    ),
                }
            }

            // Gather: a primary whose whole answer is in by its hedge
            // delay ends its shard here; a failed or late one escalates.
            while !waiting.is_empty() {
                let mut i = 0;
                while i < waiting.len() {
                    let w = &mut waiting[i];
                    let ready = w.primary.client.answer_ready(Duration::ZERO);
                    if !ready && !w.hedge_at.passed() {
                        i += 1;
                        continue;
                    }
                    let w = waiting.swap_remove(i);
                    let primary = if ready {
                        match w.primary.finish(&self.shared) {
                            Ok(tagged) => {
                                self.record_round(w.shard, w.started, false);
                                fill(w.shard, Ok(tagged));
                                continue;
                            }
                            Err(e) => Primary::Failed(e),
                        }
                    } else {
                        Primary::Late(Box::new(w.primary))
                    };
                    let first = RoundStart {
                        started: w.started,
                        hedge_at: w.hedge_at,
                        primary,
                    };
                    escalate(w.shard, w.ladder, first);
                }
                await_any(&mut waiting);
            }
            sched::join_scoped("qrouter.scatter.join", escalated);
        });

        let mut per_shard = Vec::with_capacity(n_shards);
        for slot in slots {
            match slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
                Some(Ok(tagged)) => per_shard.push(tagged),
                Some(Err(e)) => return Err(e),
                None => unreachable!("scatter scope joined with an unfilled slot"),
            }
        }

        // Refuse to merge across generations: summed votes are only
        // meaningful over one postings build. Pinned fan-outs can't get
        // here (every replica answers the pin or fails typed); unpinned
        // fan-outs can, mid-rollout, when shards flip at different
        // moments — and that window must fail loudly, not blend.
        let expected = per_shard[0].0;
        for (shard, (answered, _)) in per_shard.iter().enumerate() {
            if *answered != expected {
                self.shared.rec.counter("qrouter.gen.skew", 1);
                return Err(RouterError::GenerationSkew {
                    expected,
                    shard: shard as u32,
                    answered: *answered,
                });
            }
        }

        let mut hits = Vec::with_capacity(reads.len());
        for i in 0..reads.len() {
            let merged = merge_candidates(per_shard.iter().map(|(_, s)| &s[i]));
            hits.push(select_hit(&self.shared.cfg.query, &merged));
        }
        self.shared.rec.counter("qrouter.merge", reads.len() as u64);
        Ok((expected, hits))
    }

    /// The rest of one shard's fail-over ladder, after its first round's
    /// primary (at `ladder[0]`) came back from the scatter as `first`
    /// without an answer: up to `failover_rounds` rounds, each a primary
    /// hedged after the shard's hedge delay.
    fn query_shard(
        &self,
        shard: u32,
        seq: u64,
        pin: u64,
        reads: &[PackedSeq],
        ladder: &[String],
        first: RoundStart,
    ) -> Result<Tagged, RouterError> {
        let shared = &self.shared;
        // Racers may outlive the round, so they share one copy.
        let reads = Arc::new(reads.to_vec());
        let mut attempts = 1u32;
        let mut last: Option<QnetError> = None;
        let mut first = Some(first);
        for round in 1..=shared.cfg.failover_rounds {
            let primary = &ladder[(round as usize - 1) % ladder.len()];
            let hedge_peer = &ladder[round as usize % ladder.len()];
            let this = first.take().unwrap_or_else(|| {
                attempts += 1;
                RoundStart {
                    started: Instant::now(),
                    hedge_at: Deadline::after_ms(self.hedge_delay_ms(shard)),
                    primary: match roll_faults(shared, shard, primary) {
                        Ok(stall) => Primary::Unsent { stall },
                        Err(e) => Primary::Failed(e),
                    },
                }
            });
            let started = this.started;
            let peers = (primary.as_str(), hedge_peer.as_str());
            match self.run_round(shard, seq, round, pin, peers, &reads, this, &mut attempts) {
                Ok((tagged, hedge_won)) => {
                    self.record_round(shard, started, hedge_won);
                    return Ok(tagged);
                }
                Err(e) => {
                    if !e.last_attempt().is_retryable() {
                        // Spent deadlines and typed remote failures
                        // won't heal on another replica;
                        // name the shard and peer and stop burning budget.
                        return Err(RouterError::Net {
                            shard,
                            peer: primary.clone(),
                            source: e,
                        });
                    }
                    shared.rec.counter("qrouter.failover", 1);
                    last = Some(e);
                    if round < shared.cfg.failover_rounds {
                        self.backoff(primary, round);
                    }
                }
            }
        }
        let last = last.map(|e| e.to_string()).unwrap_or_default();
        shared.rec.counter("qrouter.shard.dead", 1);
        self.dead
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(DeadLetter {
                shard,
                n_reads: reads.len(),
                attempts,
                last_error: last.clone(),
            });
        Err(RouterError::ShardUnavailable {
            shard,
            attempts,
            last,
        })
    }

    /// Feed a round that ended in an answer into the shard's round-trip
    /// history, which drives its hedge delay.
    fn record_round(&self, shard: u32, started: Instant, hedge_won: bool) {
        self.latency[shard as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(sched::elapsed_ms(started));
        if hedge_won {
            self.shared.rec.counter("qrouter.hedge.won", 1);
        }
    }

    /// One round of a shard's ladder on the shard's own thread: the
    /// primary's answer, or the hedge's at `peers.1` if the primary has
    /// not answered by the round's hedge delay. Each attempt runs on a
    /// racer thread: a late primary is finished there, an unsent one is
    /// sent and finished there, so a stalled dial, write or read holds
    /// up nothing but its own racer. Loser threads are left to finish on
    /// their own — their connections are theirs alone, and their late
    /// outcomes land in a `Race` nobody reads again.
    #[allow(clippy::too_many_arguments)]
    fn run_round(
        &self,
        shard: u32,
        seq: u64,
        round: u32,
        pin: u64,
        (primary_peer, hedge_peer): (&str, &str),
        reads: &Arc<Vec<PackedSeq>>,
        this: RoundStart,
        attempts: &mut u32,
    ) -> RoundResult {
        let shared = &self.shared;
        let race = Arc::new(Race {
            outcomes: Mutex::new(Vec::new()),
            cv: Condvar::new(),
        });
        let name = |attempt: u32| format!("qrouter.s{shard}.q{seq}.r{round}.a{attempt}");
        match this.primary {
            Primary::Failed(e) => return Err(e),
            Primary::Late(late) => spawn_racer(shared, &race, &name(0), 0, move |shared| {
                late.finish(shared)
            }),
            Primary::Unsent { stall } => {
                let (peer, reads) = (primary_peer.to_string(), Arc::clone(reads));
                spawn_racer(shared, &race, &name(0), 0, move |shared| {
                    attempt(shared, stall, pin, &peer, &reads)
                });
            }
        }
        let wait = format!("qrouter.s{shard}.q{seq}.r{round}.wait");
        if !race.wait(1, Some(this.hedge_at), &wait) {
            shared.rec.counter("qrouter.hedge.fired", 1);
            let (peer, reads) = (hedge_peer.to_string(), Arc::clone(reads));
            spawn_racer(shared, &race, &name(1), 1, move |shared| {
                let stall = roll_faults(shared, shard, &peer)?;
                attempt(shared, stall, pin, &peer, &reads)
            });
            *attempts += 1;
            race.wait(2, None, &wait);
        }

        // Prefer a success from either attempt; a hedge can win even if
        // the primary failed first. Otherwise the last failure ends the
        // round. The waits above return only once a racer has reported.
        let taken = race
            .lock()
            .drain(..)
            .reduce(|first, next| if first.result.is_ok() { first } else { next });
        match taken {
            Some(Outcome { attempt, result }) => result.map(|tagged| (tagged, attempt == 1)),
            None => Err(QnetError::Io(std::io::Error::other(
                "a hedge race ended unreported",
            ))),
        }
    }

    /// The replica order the ladder walks for `shard`: the manifest's
    /// replica list rotated by the shard id (so shards sharing replica
    /// processes spread their primary load), then stably re-ordered
    /// with replicas marked healthy by the last probe sweep first.
    fn ladder(&self, shard: u32) -> Vec<String> {
        let replicas = &self.manifest.shards[shard as usize].replicas;
        let n = replicas.len();
        let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        let mut rotated: Vec<String> = (0..n)
            .map(|i| replicas[(shard as usize + i) % n].clone())
            .collect();
        rotated.sort_by_key(|addr| !health.get(addr).copied().unwrap_or(true));
        rotated
    }

    /// The hedge delay for `shard`: the [`HEDGE_PERCENTILE`] of its
    /// recent round-trips clamped to `[hedge_min_ms, hedge_max_ms]`, or
    /// the ceiling while the history is still warming up.
    fn hedge_delay_ms(&self, shard: u32) -> u64 {
        let cfg = &self.shared.cfg;
        let h = self.latency[shard as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if h.count() < HEDGE_WARMUP_SAMPLES {
            return cfg.hedge_max_ms;
        }
        h.percentile(HEDGE_PERCENTILE)
            .clamp(cfg.hedge_min_ms, cfg.hedge_max_ms)
    }

    /// Sleep the fail-over backoff for retry `round` against `peer`
    /// (capped, jittered, de-synchronized across replicas) — on the
    /// virtual clock under the cooperative scheduler, on the wall
    /// otherwise.
    fn backoff(&self, peer: &str, round: u32) {
        let wait = self.shared.pool.backoff_ms(peer, round).max(1);
        Deadline::after_ms(wait).sleep("qrouter.backoff");
    }

    /// Probe every distinct replica with `PingV2` and refresh the
    /// health map the ladder consults: healthy means the probe answered
    /// and the server is ready and not draining. Returns the sweep in
    /// manifest order for callers that report it.
    pub fn probe_health(&self) -> Vec<(String, bool)> {
        let mut sweep = Vec::new();
        for addr in self.manifest.all_replicas() {
            let mut client = self.shared.pool.checkout(&addr);
            let healthy = match client.ping_v2() {
                Ok(status) => {
                    self.shared.pool.checkin(&addr, client);
                    status.ready && !status.draining
                }
                Err(_) => false,
            };
            self.health
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(addr.clone(), healthy);
            sweep.push((addr, healthy));
        }
        sweep
    }

    /// Mark one replica's health directly (tests and chaos harnesses
    /// that know a replica is down without waiting for a probe sweep).
    pub fn set_replica_health(&self, addr: &str, healthy: bool) {
        self.health
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(addr.to_string(), healthy);
    }

    /// Roll the whole cluster to generation `target` (`0` = each work
    /// dir's manifest-active) with zero downtime: walk every distinct
    /// replica in manifest order, issue the `Reload` wire verb, and
    /// flip the router's generation pin only after **every** replica
    /// acked the same new generation. Until the flip, fan-outs stay
    /// pinned to the old generation — which every replica still holds
    /// resident as `previous` after its swap — so queries keep serving
    /// bit-identical answers through the entire window.
    ///
    /// A replica that refuses (load failure, checksum mismatch, stalled
    /// swap) has rolled back server-side and still serves the old
    /// generation; it is marked unhealthy so ladders deprioritize it,
    /// the walk continues (replicas already swapped stay swapped —
    /// harmless, the pin hasn't moved), and the whole rollout returns
    /// [`RouterError::RolloutFailed`] naming every refusing replica.
    /// Retrying after the operator fixes the work dir is safe: `Reload`
    /// is idempotent on replicas already serving the target.
    pub fn rollout(&self, target: u64) -> Result<u64, RouterError> {
        let shared = &self.shared;
        shared.rec.counter("qrouter.rollout.started", 1);
        let mut acked: Option<u64> = None;
        let mut failed: Vec<(String, String)> = Vec::new();
        for addr in self.manifest.all_replicas() {
            let mut client = shared.pool.checkout(&addr);
            match client.reload(target) {
                Ok(active) => {
                    shared.pool.checkin(&addr, client);
                    shared.pool.record_outcome(&addr, true);
                    shared.rec.counter("qrouter.rollout.replica.ok", 1);
                    match acked {
                        None => acked = Some(active),
                        Some(first) if first == active => {}
                        Some(first) => {
                            // Same target, different resulting actives:
                            // the work dirs disagree about what `target`
                            // means. Flipping the pin to either id would
                            // make some replica unable to serve it.
                            failed.push((
                                addr.clone(),
                                format!(
                                    "acked generation {active} while earlier replicas \
                                     acked {first}: work dirs disagree"
                                ),
                            ));
                        }
                    }
                }
                Err(e) => {
                    shared.pool.record_outcome(&addr, false);
                    self.set_replica_health(&addr, false);
                    shared.rec.counter("qrouter.rollout.replica.failed", 1);
                    failed.push((addr, e.to_string()));
                }
            }
        }
        if !failed.is_empty() {
            shared.rec.counter("qrouter.rollout.failed", 1);
            return Err(RouterError::RolloutFailed { target, failed });
        }
        let active = acked.expect("a validated manifest has at least one replica");
        self.pinned_gen.store(active, Ordering::Relaxed);
        shared.rec.counter("qrouter.rollout.ok", 1);
        Ok(active)
    }

    /// Publish each shard's round-trip latency split as a
    /// `qrouter.latency.shard{N}` histogram on the recorder, feeding
    /// the live rollup's windowed view. Call after a sweep (or on a
    /// reporting tick); emitting is cheap but not free.
    pub fn publish_telemetry(&self) {
        if !self.shared.rec.is_enabled() {
            return;
        }
        let span = self.shared.rec.current();
        for (shard, h) in self.latency.iter().enumerate() {
            let h = h.lock().unwrap_or_else(|e| e.into_inner());
            if !h.is_empty() {
                self.shared.rec.histogram_on(
                    span,
                    &format!("qrouter.latency.shard{shard}"),
                    h.clone(),
                );
            }
        }
    }
}

/// Walk the router's chaos failpoints for one attempt at `peer`: an
/// injected failure, or whether the `qrouter.shard.slow` stall applies.
fn roll_faults(shared: &Shared, shard: u32, peer: &str) -> Result<bool, QnetError> {
    use std::io::{Error, ErrorKind};
    let injected = |kind: ErrorKind, point: &str| {
        shared.pool.record_outcome(peer, false);
        Err(QnetError::Io(Error::new(
            kind,
            format!("injected {point} at {peer} (shard {shard})"),
        )))
    };
    if shared.faults.hit(faultsim::QROUTER_SHARD_DOWN).is_err() {
        return injected(ErrorKind::ConnectionRefused, faultsim::QROUTER_SHARD_DOWN);
    }
    if shared.faults.hit(faultsim::QROUTER_REPLICA_FLAP).is_err() {
        return injected(ErrorKind::ConnectionReset, faultsim::QROUTER_REPLICA_FLAP);
    }
    Ok(shared.faults.hit(faultsim::QROUTER_SHARD_SLOW).is_err())
}

/// Start a shard's primary at `peer` from the calling thread without
/// blocking: walk the failpoints, then write the query if the pooled
/// client (pooled clients never retry on their own) holds a live
/// connection whose socket takes it at once. Anything else comes back
/// as the [`Primary`] the shard's own thread goes on with.
fn launch(
    shared: &Shared,
    shard: u32,
    pin: u64,
    peer: &str,
    reads: &[PackedSeq],
) -> Result<InFlight, Primary> {
    if roll_faults(shared, shard, peer).map_err(Primary::Failed)? {
        return Err(Primary::Unsent { stall: true });
    }
    let mut client = shared.pool.checkout(peer);
    client.set_generation_pin(pin);
    match client.try_send_shard_query(reads) {
        Ok(Some(sent)) => Ok(InFlight {
            peer: peer.to_string(),
            client,
            sent,
            pin,
        }),
        Ok(None) => {
            shared.pool.checkin(peer, client);
            Err(Primary::Unsent { stall: false })
        }
        Err(e) => {
            shared.pool.record_outcome(peer, false);
            Err(Primary::Failed(e))
        }
    }
}

/// One wire attempt at `peer` on a racer thread, its failpoints already
/// walked: stall past any plausible hedge delay first when `stall` is
/// set (so the hedge demonstrably fires and wins, and this late loser
/// must be discarded safely), then send the query, dialling if need be,
/// and read its answer.
fn attempt(
    shared: &Shared,
    stall: bool,
    pin: u64,
    peer: &str,
    reads: &[PackedSeq],
) -> Result<Tagged, QnetError> {
    if stall {
        let ms = shared.cfg.hedge_max_ms.saturating_mul(2).saturating_add(50);
        Deadline::after_ms(ms).sleep(faultsim::QROUTER_SHARD_SLOW);
    }
    let mut client = shared.pool.checkout(peer);
    client.set_generation_pin(pin);
    match client.send_shard_query(reads) {
        Ok(sent) => InFlight {
            peer: peer.to_string(),
            client,
            sent,
            pin,
        }
        .finish(shared),
        Err(e) => {
            shared.pool.record_outcome(peer, false);
            Err(e)
        }
    }
}

/// Block the gathering thread until one of the `waiting` shards may
/// have moved: an answer is wholly in, or the soonest hedge delay
/// passed. On the wall clock it waits on the soonest shard's socket,
/// for at most [`SWEEP`] while other shards wait too.
fn await_any(waiting: &mut [Waiting]) {
    let cap = if waiting.len() > 1 {
        SWEEP
    } else {
        Duration::MAX
    };
    let Some(soonest) = (0..waiting.len()).min_by_key(|&i| waiting[i].hedge_at) else {
        return;
    };
    let until = waiting[soonest].hedge_at;
    // A zero wait is the virtual clock's poll, of every shard; a timed one
    // waits on the soonest shard's socket.
    until.wait_io("qrouter.primary.wait", cap, &mut |wait| {
        if wait.is_zero() {
            waiting
                .iter_mut()
                .any(|w| w.primary.client.answer_ready(Duration::ZERO))
        } else {
            waiting[soonest].primary.client.answer_ready(wait)
        }
    });
}

/// Run one racer of a hedge race on its own thread and push its outcome
/// into the race; the thread then exits — the round may already be
/// over, and that's fine.
fn spawn_racer(
    shared: &Arc<Shared>,
    race: &Arc<Race>,
    name: &str,
    attempt: u32,
    run: impl FnOnce(&Shared) -> Result<Tagged, QnetError> + Send + 'static,
) {
    let shared = Arc::clone(shared);
    let race = Arc::clone(race);
    sched::spawn(name, move || {
        let result = run(&shared);
        race.push(Outcome { attempt, result });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::ClusterManifest;

    fn router_2x2() -> Router {
        let mut m = ClusterManifest::new(2, 0xFEED);
        m.add_replica(0, "127.0.0.1:7000");
        m.add_replica(0, "127.0.0.1:7001");
        m.add_replica(1, "127.0.0.1:7002");
        m.add_replica(1, "127.0.0.1:7003");
        Router::new(
            m,
            RouterConfig::default(),
            Faults::disabled(),
            &Recorder::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn ladder_rotates_by_shard_and_prefers_healthy_replicas() {
        let r = router_2x2();
        assert_eq!(r.ladder(0), vec!["127.0.0.1:7000", "127.0.0.1:7001"]);
        // Shard 1's list rotates by one so co-hosted shards would not
        // all hammer the same first replica.
        assert_eq!(r.ladder(1), vec!["127.0.0.1:7003", "127.0.0.1:7002"]);
        // A replica marked unhealthy sinks to the back of the ladder.
        r.set_replica_health("127.0.0.1:7000", false);
        assert_eq!(r.ladder(0), vec!["127.0.0.1:7001", "127.0.0.1:7000"]);
        // Health recovers, the rotation order returns.
        r.set_replica_health("127.0.0.1:7000", true);
        assert_eq!(r.ladder(0), vec!["127.0.0.1:7000", "127.0.0.1:7001"]);
    }

    #[test]
    fn hedge_delay_warms_up_then_tracks_the_percentile_clamped() {
        let r = router_2x2();
        // Cold shard: pinned to the ceiling.
        assert_eq!(r.hedge_delay_ms(0), r.shared.cfg.hedge_max_ms);
        {
            let mut h = r.latency[0].lock().unwrap();
            for _ in 0..(HEDGE_WARMUP_SAMPLES - 1) {
                h.record(10);
            }
        }
        assert_eq!(r.hedge_delay_ms(0), r.shared.cfg.hedge_max_ms);
        r.latency[0].lock().unwrap().record(10);
        // Warm: p95 of a flat-10ms history is ~10ms, inside the clamp.
        let d = r.hedge_delay_ms(0);
        assert!(
            d >= r.shared.cfg.hedge_min_ms && d <= 20,
            "unexpected hedge delay {d}"
        );
        // A history of sub-ms round-trips clamps up to the floor.
        {
            let mut h = r.latency[1].lock().unwrap();
            for _ in 0..100 {
                h.record(0);
            }
        }
        assert_eq!(r.hedge_delay_ms(1), r.shared.cfg.hedge_min_ms);
    }

    #[test]
    fn empty_batches_route_without_touching_the_wire() {
        let r = router_2x2();
        assert!(r.route(&[]).unwrap().is_empty());
        assert!(r.dead_letters().is_empty());
    }

    #[test]
    fn unreachable_cluster_dead_letters_with_a_typed_error() {
        // Nothing listens on these ports; every attempt fails with a
        // transport error, the ladder exhausts, and the caller gets
        // ShardUnavailable naming the shard — not a hang.
        let mut m = ClusterManifest::new(1, 1);
        m.add_replica(0, "127.0.0.1:1"); // reserved port, connect refused
        let cfg = RouterConfig {
            client: ClientConfig {
                backoff_base_ms: 1,
                backoff_cap_rounds: 0,
                ..ClientConfig::default()
            },
            hedge_min_ms: 1,
            hedge_max_ms: 5,
            failover_rounds: 2,
            ..RouterConfig::default()
        };
        let r = Router::new(m, cfg, Faults::disabled(), &Recorder::disabled()).unwrap();
        let reads = vec![PackedSeq::from_codes(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])];
        match r.route(&reads) {
            Err(RouterError::ShardUnavailable {
                shard, attempts, ..
            }) => {
                assert_eq!(shard, 0);
                assert!(attempts >= 2, "expected every round attempted: {attempts}");
            }
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
        let dead = r.dead_letters();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].shard, 0);
        assert_eq!(dead[0].n_reads, 1);
    }

    #[test]
    fn generation_pin_seeds_from_the_manifest() {
        let mut m = ClusterManifest::new(1, 1);
        m.add_replica(0, "h:1");
        m.generation = 3;
        let r = Router::new(
            m,
            RouterConfig::default(),
            Faults::disabled(),
            &Recorder::disabled(),
        )
        .unwrap();
        assert_eq!(r.pinned_generation(), 3);
        r.pin_generation(5);
        assert_eq!(r.pinned_generation(), 5);
    }

    #[test]
    fn failed_rollout_leaves_the_pin_and_marks_replicas_unhealthy() {
        // Nothing listens on these ports, so every Reload fails at
        // connect. The rollout must fail typed, naming every replica,
        // without moving the pin — queries keep going to the old
        // generation exactly as before the attempt.
        let mut m = ClusterManifest::new(1, 1);
        m.add_replica(0, "127.0.0.1:1");
        m.generation = 2;
        let cfg = RouterConfig {
            client: ClientConfig {
                backoff_base_ms: 1,
                backoff_cap_rounds: 0,
                ..ClientConfig::default()
            },
            ..RouterConfig::default()
        };
        let r = Router::new(m, cfg, Faults::disabled(), &Recorder::disabled()).unwrap();
        match r.rollout(9) {
            Err(RouterError::RolloutFailed { target, failed }) => {
                assert_eq!(target, 9);
                assert_eq!(failed.len(), 1);
                assert_eq!(failed[0].0, "127.0.0.1:1");
            }
            other => panic!("expected RolloutFailed, got {:?}", other.map(|_| ())),
        }
        assert_eq!(
            r.pinned_generation(),
            2,
            "a failed rollout must not move the pin"
        );
        let health = r.health.lock().unwrap();
        assert_eq!(
            health.get("127.0.0.1:1"),
            Some(&false),
            "a refusing replica sinks in the ladder"
        );
    }
}
