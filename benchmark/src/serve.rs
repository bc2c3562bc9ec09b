//! The serving workloads: closed-loop clients sending read batches over
//! loopback to one server (`serve_net`) or through the router to a sharded
//! cluster (`serve_cluster`), and the ladder that separates their layers.

use crate::gen::{self, Origin, Rng};
use crate::util::{fact, median, median_secs, peak_rss_mb, Metrics, Trace};
use crate::Outcome;
use genome::PackedSeq;
use obs::{LiveRollup, Recorder};
use qnet::{ClientConfig, QueryClient, Request, Response, Server, ServerConfig};
use qrouter::{ClusterManifest, Router, RouterConfig};
use qserve::{
    AdmissionConfig, Candidate, ContigStore, Hit, IndexConfig, MinimizerIndex, QueryConfig,
    QueryEngine, QueryService, ServiceConfig,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one serving workload runs: one closed-loop client, one batch in
/// flight.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub contigs: usize,
    pub contig_len: usize,
    pub pool_reads: usize,
    pub batch: usize,
    /// 1: the client talks to the server directly. More: a router scatters
    /// every batch to this many shard servers, one replica each.
    pub shards: u32,
    /// Worker threads of each server's `QueryService`.
    pub workers: usize,
}

const INDEX: IndexConfig = IndexConfig {
    k: 15,
    w: 8,
    threads: 2,
};
/// Reads sent before timing, so connections, worker threads and (where it
/// fits) the postings cache are warm.
const WARMUP_READS: usize = 8192;

/// A client session: `serve_net`'s client opens a fresh connection every
/// this many batches, as each `lasagna-cli query --connect` run does. The
/// dial and the server's teardown of the old connection are inside the timed
/// section and the stamp counts the connections. The number is set by a
/// defect of the program: `qnet::Server` spawns one responder thread per
/// request and joins them only when the connection closes, so a connection
/// pins one thread stack per request it ever carried and the process runs
/// out of memory mappings near 30 000 requests (README, "What the checks
/// found"). Sessions keep every connection far below that.
pub const BATCHES_PER_CONNECTION: u64 = 2_000;

pub struct Corpus {
    pub contigs: Vec<PackedSeq>,
    pub origins: Vec<Origin>,
    pub batches: Vec<Vec<PackedSeq>>,
}

pub fn corpus(seed: u64, shape: &Shape) -> Corpus {
    let mut rng = Rng::new(seed, 2);
    let contigs: Vec<PackedSeq> = (0..shape.contigs)
        .map(|_| gen::random_seq(&mut rng, shape.contig_len))
        .collect();
    let pool = gen::query_pool(
        &mut rng,
        &contigs,
        shape.pool_reads / shape.batch * shape.batch,
    );
    let origins = pool.iter().map(|(_, o)| *o).collect();
    let reads: Vec<PackedSeq> = pool.into_iter().map(|(r, _)| r).collect();
    let batches = reads
        .chunks(shape.batch)
        .map(<[PackedSeq]>::to_vec)
        .collect();
    Corpus {
        contigs,
        origins,
        batches,
    }
}

/// Slice `shard` of `n_shards` of the index over the whole store.
pub fn engine(contigs: &[PackedSeq], shard: u32, n_shards: u32) -> QueryEngine {
    let store = ContigStore::from_contigs(contigs.to_vec());
    let index = MinimizerIndex::build_shard(&store, &INDEX, shard, n_shards);
    QueryEngine::new(store, index, QueryConfig::default())
        .expect("the index was built from this store")
}

/// A recorder as `lasagna-cli serve` deploys it, with a live roll-up the
/// harness reads counters from.
fn recorder() -> (Recorder, LiveRollup) {
    let rec = Recorder::sink_only();
    let live = LiveRollup::new(Duration::from_secs(1), 60);
    rec.add_sink(Box::new(live.clone()));
    (rec, live)
}

fn start_server(engine: QueryEngine, workers: usize) -> Server {
    let (rec, _live) = recorder();
    let service = QueryService::start(
        engine,
        ServiceConfig {
            workers,
            ..ServiceConfig::default()
        },
        &rec,
    );
    let config = ServerConfig {
        // The gates stay on the path but never bind: a shed is a failed op.
        admission: AdmissionConfig {
            refill_per_s: 1e9,
            burst: 1e9,
        },
        ..ServerConfig::default()
    };
    Server::start(service, config, &rec, faultsim::Faults::disabled())
        .expect("binding a loopback port")
}

/// A client of `server`; it dials on its first call.
fn client(server: &Server, id: &str, rec: &Recorder) -> QueryClient {
    let config = ClientConfig {
        addr: server.local_addr().to_string(),
        client_id: id.to_owned(),
        ..ClientConfig::default()
    };
    QueryClient::new(config, rec)
}

/// A router over `servers`, one shard each; it dials each on its first call.
fn router(servers: &[Server], rec: &Recorder) -> Router {
    let checksum = servers[0].service().engine().store().checksum();
    let mut manifest = ClusterManifest::new(servers.len() as u32, checksum);
    for (shard, server) in servers.iter().enumerate() {
        manifest.add_replica(shard as u32, server.local_addr().to_string());
    }
    // Hedging is a fault response, measured by `repro serve-cluster`; a
    // hedge here would be a second request the closed loop did not send.
    let config = RouterConfig {
        hedge_min_ms: 1000,
        hedge_max_ms: 1000,
        ..RouterConfig::default()
    };
    Router::new(manifest, config, faultsim::Faults::disabled(), rec)
        .expect("the manifest lists one replica per shard")
}

/// What the client sends batches through.
enum Path {
    /// Straight to one server, as `lasagna-cli query --connect` does;
    /// `sent` counts batches, for the session boundaries.
    Direct { client: QueryClient, sent: u64 },
    Routed(Router),
}

/// The running system of one workload and its one client.
pub struct System {
    servers: Vec<Server>,
    path: Path,
    /// Every client and router of this system records here, so one roll-up
    /// holds all their retries, dials, hedges and fail-overs.
    rec: Recorder,
    live: LiveRollup,
    /// Connections the harness opened on purpose; dials beyond these are
    /// reconnects.
    dials: u64,
}

impl System {
    pub fn start(shape: &Shape, contigs: &[PackedSeq]) -> System {
        let servers: Vec<Server> = (0..shape.shards)
            .map(|shard| start_server(engine(contigs, shard, shape.shards), shape.workers))
            .collect();
        let (rec, live) = recorder();
        let (path, dials) = if shape.shards == 1 {
            let client = client(&servers[0], "bench-0", &rec);
            (Path::Direct { client, sent: 0 }, 1)
        } else {
            (Path::Routed(router(&servers, &rec)), servers.len() as u64)
        };
        System {
            servers,
            path,
            rec,
            live,
            dials,
        }
    }

    /// The ladder's own client of server 0 and a router over server 0 alone.
    fn ladder_clients(&mut self) -> (QueryClient, Router) {
        self.dials += 2;
        (
            client(&self.servers[0], "ladder", &self.rec),
            router(&self.servers[..1], &self.rec),
        )
    }

    /// The workload's op: one batch, answered.
    fn send(&mut self, batch: &[PackedSeq]) -> Result<Vec<Option<Hit>>, String> {
        match &mut self.path {
            Path::Direct { client, sent } => {
                if *sent > 0 && sent.is_multiple_of(BATCHES_PER_CONNECTION) {
                    *client = QueryClient::new(client.config().clone(), &self.rec);
                    self.dials += 1;
                }
                *sent += 1;
                client.query_batch(batch).map_err(|e| e.to_string())
            }
            Path::Routed(router) => router.route(batch).map_err(|e| e.to_string()),
        }
    }

    /// Sheds, retries, reconnects, hedges and fail-overs so far: every one
    /// is an op that did not go cleanly. Read it when every client made has
    /// been used, because a client dials on its first call.
    fn unclean(&self) -> Unclean {
        let totals = self.live.totals();
        Unclean {
            shed: self
                .servers
                .iter()
                .map(|server| {
                    let stats = server.stats_snapshot();
                    stats.rejected + stats.deadline_shed + stats.fairness_shed
                })
                .sum(),
            retries: totals.counter("qnet.retries"),
            reconnects: totals
                .counter("qnet.client.connects")
                .saturating_sub(self.dials),
            hedges: totals.counter("qrouter.hedge.fired"),
            failovers: totals.counter("qrouter.failover"),
        }
    }

    fn cache_hit_frac(&self) -> f64 {
        let (mut hits, mut lookups) = (0u64, 0u64);
        for server in &self.servers {
            let stats = server.service().engine().cache_stats();
            hits += stats.hits;
            lookups += stats.hits + stats.misses;
        }
        hits as f64 / lookups.max(1) as f64
    }

    pub fn stop(self) {
        let System {
            mut servers, path, ..
        } = self;
        drop(path);
        for server in &mut servers {
            server.shutdown();
        }
    }
}

#[derive(Default, Clone, Copy)]
pub struct Unclean {
    pub shed: u64,
    pub retries: u64,
    pub reconnects: u64,
    pub hedges: u64,
    pub failovers: u64,
}

impl Unclean {
    fn total(&self) -> u64 {
        self.shed + self.retries + self.reconnects + self.hedges + self.failovers
    }
}

/// What `drive` saw.
struct Log {
    /// Seconds since the section began at which each batch was done with.
    ends: Vec<f64>,
    /// Wall seconds of each batch that was answered correctly.
    walls: Vec<f64>,
    failed: u64,
}

/// Sends pool batches `first`, `first + 1`, .. (cycling), `n` in all, one at
/// a time, and checks each answer against `expected`.
fn drive(
    system: &mut System,
    corpus: &Corpus,
    expected: &[Option<Hit>],
    first: usize,
    n: usize,
) -> Log {
    let batch_len = corpus.batches[0].len();
    let mut log = Log {
        ends: Vec::with_capacity(n),
        walls: Vec::with_capacity(n),
        failed: 0,
    };
    let begin = Instant::now();
    for op in 0..n {
        let index = (first + op) % corpus.batches.len();
        let start = Instant::now();
        let answer = system.send(&corpus.batches[index]);
        let wall = start.elapsed().as_secs_f64();
        log.ends.push(begin.elapsed().as_secs_f64());
        match answer {
            Ok(hits) if hits == expected[index * batch_len..(index + 1) * batch_len] => {
                log.walls.push(wall);
            }
            Ok(_) => log.failed += 1,
            Err(e) => {
                eprintln!("batch {index} failed: {e}");
                log.failed += 1;
            }
        }
    }
    log
}

/// What the oracle says of every pool read, and whether the planted reads
/// behave as planted: at most two substitutions map back to their origin
/// (recall at least 0.995), foreign and four-substitution reads map nowhere.
pub fn oracle(corpus: &Corpus, engine: &QueryEngine) -> (Vec<Option<Hit>>, bool, f64) {
    let reads: Vec<&PackedSeq> = corpus.batches.iter().flatten().collect();
    let half = reads.len() / 2;
    let expected: Vec<Option<Hit>> = std::thread::scope(|scope| {
        let back = scope.spawn(|| {
            reads[half..]
                .iter()
                .map(|r| engine.query(r))
                .collect::<Vec<_>>()
        });
        let mut front: Vec<Option<Hit>> = reads[..half].iter().map(|r| engine.query(r)).collect();
        front.extend(
            back.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        );
        front
    });
    let (mut mappable, mut recalled, mut spurious) = (0u64, 0u64, 0u64);
    for (hit, origin) in expected.iter().zip(&corpus.origins) {
        match *origin {
            Origin::Planted {
                contig,
                offset,
                reverse,
                substitutions,
            } if substitutions <= 2 => {
                mappable += 1;
                recalled += u64::from(hit.is_some_and(|h| {
                    (h.contig, h.offset, h.reverse, h.mismatches)
                        == (contig, offset, reverse, substitutions)
                }));
            }
            _ => spurious += u64::from(hit.is_some()),
        }
    }
    let recall = recalled as f64 / mappable.max(1) as f64;
    let mapped = expected.iter().filter(|h| h.is_some()).count() as f64 / expected.len() as f64;
    (expected, recall >= 0.995 && spurious == 0, mapped)
}

/// Set-up as a deployment pays it: inputs, store and index build, servers,
/// connection, warm-up traffic (the first batches of the pool; the timed
/// section goes on from there). Returns the warm-up's batch count and how
/// many of them failed.
fn set_up(shape: &Shape, seed: u64, expected: &[Option<Hit>]) -> (f64, Corpus, System, usize, u64) {
    let start = Instant::now();
    let corpus = corpus(seed, shape);
    let mut system = System::start(shape, &corpus.contigs);
    let warm = (WARMUP_READS / shape.batch).min(corpus.batches.len());
    let failed = drive(&mut system, &corpus, expected, 0, warm).failed;
    (start.elapsed().as_secs_f64(), corpus, system, warm, failed)
}

/// Timed closed loop plus its statistics; shared by the untraced run and the
/// short untraced section of the traced run.
pub struct Timed {
    pub attempted: u64,
    pub failed: u64,
    pub walls: Vec<f64>,
    pub round_rates: Vec<f64>,
}

fn timed(
    system: &mut System,
    corpus: &Corpus,
    expected: &[Option<Hit>],
    first: usize,
    batches: usize,
) -> Timed {
    let before = system.unclean();
    let log = drive(system, corpus, expected, first, batches);
    let unclean = system.unclean().total().saturating_sub(before.total());
    let batch_len = corpus.batches[0].len();
    // Rounds are equal groups of consecutive batches.
    let round_rates = (0..crate::ROUNDS)
        .map(|r| {
            let lo = r * batches / crate::ROUNDS;
            let hi = (r + 1) * batches / crate::ROUNDS;
            let began = if lo == 0 { 0.0 } else { log.ends[lo - 1] };
            ((hi - lo) * batch_len) as f64 / (log.ends[hi - 1] - began)
        })
        .collect();
    Timed {
        attempted: batches as u64,
        failed: log.failed + unclean,
        walls: log.walls,
        round_rates,
    }
}

/// The untraced run: `batches` timed batches, at least one per round.
pub fn run(shape: &Shape, seed: u64, batches: usize) -> Outcome {
    // The expected answers are harness work, outside every timed set-up.
    let (expected, planted_ok, _mapped) = {
        let corpus = corpus(seed, shape);
        oracle(&corpus, &engine(&corpus.contigs, 0, 1))
    };
    let expected = &expected;
    let mut setups = Vec::new();
    let mut warm_failed = 0;
    let (corpus, mut system, warm) = loop {
        let (wall, corpus, system, warm, failed) = set_up(shape, seed, expected);
        setups.push(wall);
        warm_failed += failed;
        if setups.len() == crate::SETUP_REPEATS {
            break (corpus, system, warm);
        }
        system.stop();
    };

    let t = timed(&mut system, &corpus, expected, warm, batches);
    let hit_frac = system.cache_hit_frac();
    let connections = system.dials;
    system.stop();

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("reads_per_s", median(&t.round_rates), "1/s");
    // With every batch failed there is no wall to take a median of.
    let p50 = if t.walls.is_empty() {
        f64::NAN
    } else {
        median(&t.walls) * 1e3
    };
    metrics.put("op_p50_ms", p50, "ms");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    let mut stamp = shape_stamp(shape);
    stamp.push(fact("ops", t.attempted));
    stamp.push(fact("warmup_ops", warm));
    stamp.push(fact("connections", connections));
    stamp.push(fact("round_reads_per_s", format!("{:.0?}", t.round_rates)));
    stamp.push(fact("cache_hit_frac", format!("{hit_frac:.4}")));
    Outcome {
        correct: planted_ok && t.failed == 0 && warm_failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        stamp,
    }
}

pub fn shape_stamp(shape: &Shape) -> Vec<(String, String)> {
    vec![
        fact("store_contigs", shape.contigs),
        fact("store_bases", shape.contigs * shape.contig_len),
        fact("pool_reads", shape.pool_reads),
        fact("batch_reads", shape.batch),
        fact("clients", 1),
        fact("shards", shape.shards),
        fact("workers_per_server", shape.workers),
        fact("batches_per_connection", BATCHES_PER_CONNECTION),
    ]
}

/// Result of the serving ladder.
pub struct Ladder {
    pub metrics: Metrics,
    pub ok: bool,
    /// Op walls of the short untraced section, seconds.
    pub plain_walls: Vec<f64>,
    pub round_rates: Vec<f64>,
    /// Median wall of the workload's op when each op is recorded as a span,
    /// and of the unrecorded ops that alternated with them.
    pub traced_wall: f64,
    pub paired_plain_wall: f64,
    pub attempted: u64,
}

/// The batches a ladder's rungs run over. Two rungs measure the workload in
/// its own cache state and take *fresh* batches, the next `take` of the pool
/// each (on the cache-miss workload what an earlier pass fetched is evicted
/// long before the pool wraps around). The others measure what a layer adds
/// on top of the one below, which does not depend on the cache: they all run
/// the same `take` *fixed* batches, warmed once, so that their differences
/// are differences of layers and not of batches.
struct Rungs<'a> {
    trace: &'a mut Trace,
    batches: &'a [Vec<PackedSeq>],
    cursor: usize,
    fixed_start: usize,
    take: usize,
    ok: bool,
}

impl Rungs<'_> {
    /// Median seconds per batch of `send(pool index, batch)`, each call under
    /// a span named `name`.
    fn rung(
        &mut self,
        name: &'static str,
        fresh: bool,
        mut send: impl FnMut(usize, &[PackedSeq]) -> bool,
    ) -> f64 {
        let start = if fresh { self.cursor } else { self.fixed_start };
        for op in 0..self.take {
            let index = (start + op) % self.batches.len();
            self.ok &= self
                .trace
                .span(name, None, op as u64, || send(index, &self.batches[index]));
        }
        if fresh {
            self.cursor += self.take;
        }
        median(&self.trace.seconds_of(name))
    }
}

/// The serving ladder: `plain_batches` untraced batches of the workload's
/// own closed loop, then `ladder_reads` reads of batches through each rung
/// from the top (router or client) down to the codec. A layer's self time is
/// its rung minus the rung below.
pub fn ladder(
    shape: &Shape,
    seed: u64,
    plain_batches: usize,
    ladder_reads: usize,
    trace: &mut Trace,
) -> Ladder {
    let (expected, planted_ok, mapped_frac, index_build_s, index_bytes) = {
        let corpus = corpus(seed, shape);
        let start = Instant::now();
        let full = engine(&corpus.contigs, 0, 1);
        let index_build_s = start.elapsed().as_secs_f64();
        let (expected, planted_ok, mapped_frac) = oracle(&corpus, &full);
        let index_bytes = full.index().encode().len();
        (expected, planted_ok, mapped_frac, index_build_s, index_bytes)
    };
    let expected = &expected;
    let (_, corpus, mut system, warm, warm_failed) = set_up(shape, seed, expected);
    let mut ok = planted_ok && warm_failed == 0;
    let plain = timed(&mut system, &corpus, expected, warm, plain_batches);
    ok &= plain.failed == 0;

    let batch_len = shape.batch;
    let want = |i: usize| &expected[i * batch_len..(i + 1) * batch_len];
    let take = (ladder_reads / batch_len).min(corpus.batches.len() / 5);
    // Past what the warm-up and the untraced section sent.
    let sent = (warm + plain_batches) % corpus.batches.len();
    let mut rungs = Rungs {
        trace,
        batches: &corpus.batches,
        cursor: sent + take,
        fixed_start: sent,
        take,
        ok,
    };

    // In the workload's cache state: its own path, and the engine alone.
    // Each recorded op of the top rung is followed by one that is timed but
    // not recorded, so what recording costs is a difference of neighbours.
    let mut unrecorded = Vec::new();
    for op in 0..take {
        let recorded = (rungs.cursor + 2 * op) % corpus.batches.len();
        let plain = (recorded + 1) % corpus.batches.len();
        rungs.ok &= rungs.trace.span("op", None, op as u64, || {
            system
                .send(&corpus.batches[recorded])
                .is_ok_and(|hits| hits == want(recorded))
        });
        let start = Instant::now();
        rungs.ok &= system
            .send(&corpus.batches[plain])
            .is_ok_and(|hits| hits == want(plain));
        unrecorded.push(start.elapsed().as_secs_f64());
    }
    rungs.cursor += 2 * take;
    let top = median(&rungs.trace.seconds_of("op"));
    let hit_frac = system.cache_hit_frac();

    // The rungs below the top talk to server 0: the whole index when there
    // is one shard, its slice of the index otherwise.
    let (mut direct, route_one) = system.ladder_clients();
    let engine = system.servers[0].service().engine();
    let sharded = shape.shards > 1;
    let engine_in_state = rungs.rung("engine.in_cache_state", true, |_, b| {
        for read in b {
            if sharded {
                black_box(engine.query_candidates(read));
            } else {
                black_box(engine.query(read));
            }
        }
        true
    });

    // On the fixed batches. The first rung also warms them.
    let mut lists: Vec<Vec<Vec<Candidate>>> = Vec::new();
    let mut answered = 0usize;
    rungs.rung("engine.warm", false, |i, b| {
        lists.push(b.iter().map(|r| engine.query_candidates(r)).collect());
        answered += want(i).iter().filter(|h| h.is_some()).count();
        true
    });
    let service = system.servers[0].service();
    let routed = rungs.rung("router.route", false, |_, b| route_one.route(b).is_ok());
    let client_hits = rungs.rung("client.query_batch", false, |_, b| {
        direct.query_batch(b).is_ok()
    });
    let client_cands = rungs.rung("client.shard_query_batch", false, |_, b| {
        direct.shard_query_batch(b).is_ok()
    });
    let service_hits = rungs.rung("service.query_batch", false, |_, b| {
        service.query_batch(b.to_vec()).is_ok()
    });
    let service_cands = rungs.rung("service.query_batch_candidates", false, |_, b| {
        service.query_batch_candidates(b.to_vec()).is_ok()
    });
    let engine_hits = rungs.rung("engine.query", false, |_, b| {
        b.iter().for_each(|r| {
            black_box(engine.query(r));
        });
        true
    });
    let engine_cands = rungs.rung("engine.query_candidates", false, |_, b| {
        b.iter().for_each(|r| {
            black_box(engine.query_candidates(r));
        });
        true
    });
    let minimizers = rungs.rung("minimizers", false, |_, b| {
        b.iter().for_each(|r| {
            black_box(qserve::minimizers(r, INDEX.k, INDEX.w));
            black_box(qserve::minimizers(
                &r.reverse_complement(),
                INDEX.k,
                INDEX.w,
            ));
        });
        true
    });
    let config = engine.query_config();
    let mut next_list = lists.iter();
    let merge = rungs.rung("merge", false, |_, _| {
        for per_read in next_list.next().expect("one list per fixed batch") {
            let merged = qserve::merge_candidates([per_read.as_slice()]);
            black_box(qserve::select_hit(&config, &merged));
        }
        true
    });
    ok = rungs.ok;

    // On the sharded path a batch travels as a candidate query; on the
    // direct path as a hits query. Each layer is costed on the path the
    // workload's op takes.
    let (client_rung, service_rung, engine_rung) = if sharded {
        (client_cands, service_cands, engine_cands)
    } else {
        (client_hits, service_hits, engine_hits)
    };
    let us = 1e6;
    let ns_per_read = 1e9 / batch_len as f64;
    let mut m = Metrics::default();
    m.put(
        "qserve.minimizers.ns_per_read",
        minimizers * ns_per_read,
        "ns",
    );
    m.put("qserve.query.ns_per_read", engine_hits * ns_per_read, "ns");
    m.put(
        "qserve.candidates.ns_per_read",
        engine_cands * ns_per_read,
        "ns",
    );
    m.put(
        "qserve.service.overhead_us_per_batch",
        (service_rung - engine_rung) * us,
        "us",
    );
    m.put("qserve.cache_hit_frac", hit_frac, "ratio");
    m.put("qserve.mapped_frac", mapped_frac, "ratio");
    m.put("qserve.index_build_s", index_build_s, "s");
    m.put("qserve.index_bytes", index_bytes as f64, "B");
    m.put(
        "qnet.overhead_us_per_batch",
        (client_rung - service_rung) * us,
        "us",
    );
    // What the router adds at one shard over the shard call it makes.
    m.put(
        "qrouter.overhead_us_per_batch",
        (routed - client_cands) * us,
        "us",
    );
    // What is left of the op above one server's layers: on the sharded path
    // the scatter, the wait for the slower shard and the merge; about
    // nothing when the workload has no router.
    m.put(
        "qrouter.op_self_us_per_batch",
        (top - engine_in_state - (client_rung - engine_rung)) * us,
        "us",
    );
    m.put("qrouter.merge.ns_per_read", merge * ns_per_read, "ns");
    let shipped: usize = lists.iter().flatten().map(Vec::len).sum();
    m.put(
        "qrouter.candidates_per_read",
        shipped as f64 / answered.max(1) as f64,
        "ratio",
    );
    m.put("client.ladder_op_us_per_batch", top * us, "us");
    m.put("qserve.engine_us_per_batch", engine_in_state * us, "us");

    m.put(
        "qnet.ping_rtt_us",
        median_secs(200, || {
            if let Err(e) = direct.ping_v2() {
                eprintln!("ping failed: {e}");
            }
        }) * us,
        "us",
    );
    // The pool's first batch, so that the byte counts repeat from run to run.
    let first_batch = &corpus.batches[0];
    let its_candidates: Vec<Vec<Candidate>> = first_batch
        .iter()
        .map(|r| engine.query_candidates(r))
        .collect();
    m.extend(codec_metrics(first_batch, &its_candidates));

    let u = system.unclean();
    m.put("qnet.shed", u.shed as f64, "count");
    m.put("qnet.retries", u.retries as f64, "count");
    m.put("qnet.reconnects", u.reconnects as f64, "count");
    m.put("qrouter.hedge_fired", u.hedges as f64, "count");
    m.put("qrouter.failover", u.failovers as f64, "count");
    ok &= u.total() == 0;
    drop(direct);
    drop(route_one);
    system.stop();

    m.extend(obs_metrics(&corpus));
    Ladder {
        metrics: m,
        ok,
        plain_walls: plain.walls,
        round_rates: plain.round_rates,
        traced_wall: top,
        paired_plain_wall: median(&unrecorded),
        attempted: plain.attempted + (take * 12) as u64,
    }
}

/// Encode and decode cost of the four wire messages a batch travels as.
fn codec_metrics(batch: &[PackedSeq], candidates: &[Vec<Candidate>]) -> Metrics {
    let n = batch.len() as f64;
    let query = |reads: Vec<PackedSeq>| Request::Query {
        request_id: 7,
        deadline_ms: 10_000,
        client_id: "bench-0".to_owned(),
        reads,
        auth_seq: 0,
        auth_tag: 0,
        generation: 0,
    };
    let request = query(batch.to_vec());
    let request_bytes = request.encode();
    let hits = Response::Hits {
        request_id: 7,
        generation: 0,
        hits: (0..batch.len())
            .map(|i| {
                (i % 4 != 3).then_some(Hit {
                    contig: i as u32,
                    offset: 4242,
                    reverse: i % 2 == 1,
                    mismatches: 1,
                    votes: 9,
                })
            })
            .collect(),
    };
    let hits_bytes = hits.encode();
    let shard = Response::ShardCandidates {
        request_id: 7,
        generation: 0,
        candidates: candidates.to_vec(),
    };
    let shard_bytes = shard.encode();

    let mut m = Metrics::default();
    let per_read = |secs: f64| secs * 1e9 / n;
    m.put(
        "qnet.req_encode.ns_per_read",
        per_read(median_secs(200, || {
            black_box(request.encode());
        })),
        "ns",
    );
    m.put(
        "qnet.req_decode.ns_per_read",
        per_read(median_secs(200, || {
            black_box(Request::decode(&request_bytes, "bench").is_ok());
        })),
        "ns",
    );
    m.put(
        "qnet.resp_encode.ns_per_read",
        per_read(median_secs(200, || {
            black_box(hits.encode());
        })),
        "ns",
    );
    m.put(
        "qnet.resp_decode.ns_per_read",
        per_read(median_secs(200, || {
            black_box(Response::decode(&hits_bytes, "bench").is_ok());
        })),
        "ns",
    );
    m.put(
        "qnet.shard_resp_decode.ns_per_read",
        per_read(median_secs(200, || {
            black_box(Response::decode(&shard_bytes, "bench").is_ok());
        })),
        "ns",
    );
    m.put(
        "qnet.req_bytes_per_read",
        request_bytes.len() as f64 / n,
        "B",
    );
    m.put("qnet.resp_bytes_per_read", hits_bytes.len() as f64 / n, "B");
    m.put(
        "qnet.shard_resp_bytes_per_read",
        shard_bytes.len() as f64 / n,
        "B",
    );

    // One request frame written to and read back from memory.
    let mut wire = Vec::with_capacity(request_bytes.len() + gstream::FRAME_HEADER_BYTES);
    m.put(
        "gstream.frame.ns_per_frame",
        median_secs(200, || {
            wire.clear();
            gstream::write_frame(&mut wire, &request_bytes).expect("writing to memory");
            black_box(
                gstream::read_frame(&mut wire.as_slice(), "bench")
                    .expect("reading what was written"),
            );
        }) * 1e9,
        "ns",
    );
    m
}

/// Cost of the recorder: the same batches through three in-process services
/// whose recorders drop everything, forward to sinks only, or buffer too.
/// Passes alternate between the services so drift hits all three alike.
fn obs_metrics(corpus: &Corpus) -> Metrics {
    // A store of at most 0.5 Mbp keeps three engine builds cheap.
    let contigs = &corpus.contigs[..corpus.contigs.len().min(50)];
    let batches = &corpus.batches[..(4_800 / corpus.batches[0].len()).min(corpus.batches.len())];
    let services: Vec<QueryService> = [Recorder::disabled(), recorder().0, Recorder::new()]
        .iter()
        .map(|rec| {
            QueryService::start(
                engine(contigs, 0, 1),
                ServiceConfig {
                    workers: 1,
                    ..ServiceConfig::default()
                },
                rec,
            )
        })
        .collect();
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    for pass in 0..8 {
        for (service, walls) in services.iter().zip(&mut walls) {
            let start = Instant::now();
            for batch in batches {
                black_box(service.query_batch(batch.clone()).is_ok());
            }
            // The first pass fills the cache.
            if pass > 0 {
                walls.push(start.elapsed().as_secs_f64());
            }
        }
    }
    let off = median(&walls[0]);
    let mut m = Metrics::default();
    m.put(
        "obs.sink_only_overhead_frac",
        median(&walls[1]) / off - 1.0,
        "ratio",
    );
    m.put(
        "obs.full_overhead_frac",
        median(&walls[2]) / off - 1.0,
        "ratio",
    );
    m
}
