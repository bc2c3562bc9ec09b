//! # faultsim — deterministic fault injection
//!
//! A registry of named *failpoints* threaded through the I/O, device, and
//! network layers. A [`FaultPlan`] arms a failpoint to fire on its Nth hit
//! ([`FaultPlan::fail_at`], one-shot) or on a deterministic pseudo-random
//! fraction of hits ([`FaultPlan::fail_prob`], persistent — models a flaky
//! component such as a lossy network); the shared [`Faults`] handle counts
//! hits and returns [`FaultError`] at exactly the armed occurrences.
//! Because every layer in this codebase is deterministic — probabilistic
//! arms draw from a seeded hash of the occurrence number, not a clock —
//! "fail the 3rd spill write" and "drop 5 % of connections under seed 7"
//! reproduce the same crashes on every run, which is what makes the
//! crash-and-resume matrix in `tests/failure_injection.rs` and
//! `repro faults` a proof rather than a dice roll.
//!
//! Failpoints are identified by the string constants below; see
//! ROBUSTNESS.md for the catalogue and where each one is checked. Injected
//! faults are recorded on the attached [`obs::Recorder`] as
//! `fault.injected.<point>` counters, and recovery layers report retries as
//! `fault.retries.<point>` via [`Faults::record_retry`].

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use stdx::lock;

pub mod sched;

/// Failpoint: committing (finishing) a spill file in `RecordWriter::finish`.
pub const SPILL_WRITE: &str = "gstream.write";
/// Failpoint: opening a spill file in `RecordReader::open`.
pub const READER_OPEN: &str = "gstream.open";
/// Failpoint: launching a vgpu kernel (any public `Device` kernel method).
pub const KERNEL_LAUNCH: &str = "vgpu.launch";
/// Failpoint: sending a dnet active message (`AmClient` with faults attached).
pub const DNET_AM: &str = "dnet.am";
/// Failpoint: handing the reduce-phase out-degree bit-vector token to the
/// next owner in `dnet::cluster`.
pub const DNET_TOKEN: &str = "dnet.token";
/// Failpoint: committing `manifest.json` in `lasagna::manifest`.
pub const MANIFEST_WRITE: &str = "manifest.write";
/// Failpoint: appending a record to the master's `superstep.log` in
/// `dnet::superstep` (fires before any byte reaches the log, so the
/// superstep it describes is replayed on resume).
pub const SUPERSTEP_WRITE: &str = "superstep.write";
/// Failpoint: the disk filling up mid-write. Unlike the crash-model
/// failpoints it surfaces as `StreamError::Io` with
/// `ErrorKind::StorageFull` from `RecordWriter`, the same shape a real
/// ENOSPC takes, so recovery paths (scratch shedding, CLI exit code 5)
/// are exercised against the genuine error type.
pub const DISK_FULL: &str = "disk.full";
/// Failpoint: opening/validating the contig store in
/// `qserve::ContigStore::open`.
pub const QSERVE_STORE_READ: &str = "qserve.store.read";
/// Failpoint: opening/validating the minimizer index in
/// `qserve::MinimizerIndex::open`.
pub const QSERVE_INDEX_READ: &str = "qserve.index.read";
/// Failpoint: exporting the contig store (`qserve::ContigStore::write`,
/// which `qserve::generations::export` calls). Like [`DISK_FULL`] it
/// surfaces as `StreamError::Io` with `ErrorKind::StorageFull` — the real
/// ENOSPC shape — so the export's shed-and-retry path (and CLI exit 5)
/// is exercised against the genuine error type.
pub const QSERVE_STORE_WRITE: &str = "qserve.store.write";
/// Failpoint: the `qnet` server accepting a connection — the just-accepted
/// socket is dropped before any byte is exchanged.
pub const QNET_ACCEPT: &str = "qnet.accept";
/// Failpoint: the `qnet` server committing a response frame — only a
/// prefix of the frame reaches the wire before the connection closes
/// (a torn/partial write the client must detect as corrupt).
pub const QNET_FRAME_WRITE: &str = "qnet.frame.write";
/// Failpoint: the `qnet` server stalling instead of responding — it holds
/// the response past the client's read timeout, then drops the connection.
pub const QNET_FRAME_STALL: &str = "qnet.frame.stall";
/// Failpoint: the `qnet` server dropping a connection mid-request, before
/// any response bytes are written. Meaningful armed probabilistically
/// ([`FaultPlan::fail_prob`]) as well as at a fixed occurrence.
pub const QNET_CONN_DROP: &str = "qnet.conn.drop";
/// Failpoint: the `qrouter` scatter path finding a shard replica
/// unreachable — the attempt fails before any byte is sent, as if the
/// replica's listener were gone. Drives the fail-over ladder.
pub const QROUTER_SHARD_DOWN: &str = "qrouter.shard.down";
/// Failpoint: a `qrouter` shard attempt stalling before its request is
/// sent — long enough to blow past the hedge delay, so the hedged second
/// request races (and should win against) the slow primary.
pub const QROUTER_SHARD_SLOW: &str = "qrouter.shard.slow";
/// Failpoint: a `qrouter` replica flapping — the attempt fails with a
/// retryable transport error and the replica is immediately healthy
/// again, exercising backoff bookkeeping without a dead replica.
pub const QROUTER_REPLICA_FLAP: &str = "qrouter.replica.flap";
/// Failpoint: loading a new generation's store/index during a hot reload
/// (`QueryService::reload_from`) — the load fails before the generation
/// is admitted, so the service keeps answering from the old generation.
pub const QSERVE_GEN_LOAD: &str = "qserve.gen.load";
/// Failpoint: validating a freshly loaded generation against its manifest
/// entry — the checksum binding is reported as mismatched, exercising the
/// typed rollback path (`GenError::ChecksumMismatch`).
pub const QSERVE_GEN_VALIDATE: &str = "qserve.gen.validate";
/// Failpoint: the `qnet` server stalling mid-reload — the swap is held
/// past its deadline and then fails loudly (a typed `ReloadFailed` naming
/// the generation) while queries keep draining from the old generation.
pub const QNET_RELOAD_STALL: &str = "qnet.reload.stall";

/// Every failpoint the codebase registers, in checking order. Also
/// exported as [`ALL_POINTS`]; [`FaultPlan::parse`] rejects any name not
/// on this list, so a typo in a `--faults` spec is loud instead of an arm
/// that silently never fires.
pub const ALL_FAILPOINTS: &[&str] = &[
    SPILL_WRITE,
    READER_OPEN,
    KERNEL_LAUNCH,
    DNET_AM,
    DNET_TOKEN,
    MANIFEST_WRITE,
    SUPERSTEP_WRITE,
    DISK_FULL,
    QSERVE_STORE_READ,
    QSERVE_INDEX_READ,
    QSERVE_STORE_WRITE,
    QNET_ACCEPT,
    QNET_FRAME_WRITE,
    QNET_FRAME_STALL,
    QNET_CONN_DROP,
    QROUTER_SHARD_DOWN,
    QROUTER_SHARD_SLOW,
    QROUTER_REPLICA_FLAP,
    QSERVE_GEN_LOAD,
    QSERVE_GEN_VALIDATE,
    QNET_RELOAD_STALL,
];

/// Alias for [`ALL_FAILPOINTS`] under the registry-generic name the
/// schedule-point catalogue (ROBUSTNESS.md) uses.
pub const ALL_POINTS: &[&str] = ALL_FAILPOINTS;

/// A rejected fault spec: [`FaultPlan::parse`] refuses to arm anything it
/// cannot fully understand, because a mis-spelled point or a garbled
/// probability arm would otherwise "pass" every chaos test by injecting
/// nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// The point name is not in [`ALL_POINTS`].
    UnknownPoint { point: String },
    /// The arm after the `:` (occurrence or probability) is malformed.
    BadArm { part: String, reason: String },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::UnknownPoint { point } => write!(
                f,
                "unknown failpoint {point:?}; known points: {}",
                ALL_POINTS.join(", ")
            ),
            FaultSpecError::BadArm { part, reason } => {
                write!(f, "bad fault spec {part:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// An injected failure, returned by [`Faults::hit`] at the armed occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Which failpoint fired.
    pub point: String,
    /// 1-based hit count at which it fired.
    pub occurrence: u64,
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected fault at {} (occurrence {})",
            self.point, self.occurrence
        )
    }
}

impl std::error::Error for FaultError {}

/// When an armed failpoint fires.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Trigger {
    /// Fire exactly once, on the `nth` hit (1-based).
    Nth(u64),
    /// Fire on every hit whose deterministic per-occurrence draw lands
    /// below `percent`. Never removed: a 5 % arm keeps firing on ~5 % of
    /// hits for the life of the registry. The draw hashes
    /// `seed ^ occurrence`, so a given (seed, occurrence) either always
    /// fires or never does — probabilistic in distribution, fully
    /// reproducible per run.
    Prob { percent: u8, seed: u64 },
}

/// One armed failure at `point`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Arm {
    point: String,
    trigger: Trigger,
}

/// The per-occurrence draw behind [`Trigger::Prob`].
fn prob_fires(seed: u64, occurrence: u64, percent: u8) -> bool {
    stdx::splitmix64(seed ^ occurrence.wrapping_mul(0xA24B_AED4_963E_E407)) % 100 < percent as u64
}

/// A declarative set of armed failpoints. Build with [`FaultPlan::fail_at`]
/// or parse a `point:nth,point:nth` spec (the `repro faults` harness and
/// tests use both). The plan is inert data; [`Faults::from_plan`] turns it
/// into a live, counting registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    arms: Vec<Arm>,
}

impl FaultPlan {
    /// An empty plan (no armed faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arm `point` to fail on its `nth` hit (1-based, fires once).
    pub fn fail_at(mut self, point: &str, nth: u64) -> Self {
        assert!(nth >= 1, "failpoint occurrences are 1-based");
        self.arms.push(Arm {
            point: point.to_string(),
            trigger: Trigger::Nth(nth),
        });
        self
    }

    /// Arm `point` probabilistically: each hit fires with probability
    /// `percent`/100, drawn deterministically from `seed` and the hit's
    /// occurrence number (see [`Trigger::Prob`]). Unlike [`fail_at`]
    /// arms, a probabilistic arm never disarms — it models a flaky
    /// component, not a single crash.
    ///
    /// [`fail_at`]: FaultPlan::fail_at
    pub fn fail_prob(mut self, point: &str, percent: u8, seed: u64) -> Self {
        assert!(percent <= 100, "probability is a percentage");
        self.arms.push(Arm {
            point: point.to_string(),
            trigger: Trigger::Prob { percent, seed },
        });
        self
    }

    /// Parse `"gstream.write:3,vgpu.launch:1"`. A probabilistic arm is
    /// `point:p<percent>` or `point:p<percent>@<seed>` (seed defaults
    /// to 0), e.g. `"qnet.conn.drop:p5@7"`. Point names are validated
    /// against [`ALL_POINTS`] — an unknown name is a typed
    /// [`FaultSpecError::UnknownPoint`], never a silently inert arm.
    pub fn parse(spec: &str) -> std::result::Result<FaultPlan, FaultSpecError> {
        let bad = |part: &str, reason: &str| FaultSpecError::BadArm {
            part: part.to_string(),
            reason: reason.to_string(),
        };
        let mut plan = FaultPlan::new();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (point, trigger) = part
                .split_once(':')
                .ok_or_else(|| bad(part, "want point:nth or point:pN[@seed]"))?;
            if !ALL_POINTS.contains(&point) {
                return Err(FaultSpecError::UnknownPoint {
                    point: point.to_string(),
                });
            }
            if let Some(prob) = trigger.strip_prefix('p') {
                let (percent, seed) = match prob.split_once('@') {
                    Some((p, s)) => (
                        p.parse::<u8>()
                            .map_err(|_| bad(part, "probability is not a number"))?,
                        s.parse::<u64>()
                            .map_err(|_| bad(part, "seed is not a number"))?,
                    ),
                    None => (
                        prob.parse::<u8>()
                            .map_err(|_| bad(part, "probability is not a number"))?,
                        0,
                    ),
                };
                if percent > 100 {
                    return Err(bad(part, "probability exceeds 100"));
                }
                plan = plan.fail_prob(point, percent, seed);
            } else {
                let nth: u64 = trigger
                    .parse()
                    .map_err(|_| bad(part, "occurrence is not a number"))?;
                if nth == 0 {
                    return Err(bad(part, "occurrences are 1-based"));
                }
                plan = plan.fail_at(point, nth);
            }
        }
        Ok(plan)
    }

    /// True if nothing is armed.
    pub fn is_empty(&self) -> bool {
        self.arms.is_empty()
    }
}

#[derive(Debug, Default)]
struct State {
    /// Hits seen per failpoint.
    hits: BTreeMap<String, u64>,
    /// Armed, not-yet-fired faults.
    arms: Vec<Arm>,
    /// Faults that have fired.
    injected: Vec<FaultError>,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
    recorder: Mutex<obs::Recorder>,
}

/// Shared handle to the failpoint registry. Clone-cheap; clones share hit
/// counters, so "the Nth spill write" counts across every thread and node
/// that holds a clone. [`Faults::disabled`] (the default everywhere) makes
/// every check a no-op.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    inner: Option<Arc<Inner>>,
}

impl Faults {
    /// A handle that never fires and counts nothing.
    pub fn disabled() -> Self {
        Faults { inner: None }
    }

    /// A live registry armed from `plan`. An empty plan still counts hits
    /// (useful for discovering occurrence numbers to arm).
    pub fn from_plan(plan: &FaultPlan) -> Self {
        Faults {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(State {
                    hits: BTreeMap::new(),
                    arms: plan.arms.clone(),
                    injected: Vec::new(),
                }),
                recorder: Mutex::new(obs::Recorder::disabled()),
            })),
        }
    }

    /// True unless this is the [`Faults::disabled`] no-op handle.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a recorder; injected faults and retries emit
    /// `fault.injected.<point>` / `fault.retries.<point>` counters on it.
    pub fn set_recorder(&self, recorder: obs::Recorder) {
        if let Some(inner) = &self.inner {
            *lock(&inner.recorder) = recorder;
        }
    }

    /// Check in at `point`: increments its hit count and fails iff an arm
    /// matches this occurrence. Each arm fires at most once.
    pub fn hit(&self, point: &str) -> std::result::Result<(), FaultError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let fired = {
            let mut state = lock(&inner.state);
            let count = state.hits.entry(point.to_string()).or_insert(0);
            *count += 1;
            let occurrence = *count;
            let armed = state.arms.iter().position(|a| {
                a.point == point
                    && match a.trigger {
                        Trigger::Nth(nth) => nth == occurrence,
                        Trigger::Prob { percent, seed } => prob_fires(seed, occurrence, percent),
                    }
            });
            armed.map(|idx| {
                // Fixed-occurrence arms fire once; probabilistic arms
                // model an ongoing flake and stay armed.
                if matches!(state.arms[idx].trigger, Trigger::Nth(_)) {
                    state.arms.remove(idx);
                }
                let err = FaultError {
                    point: point.to_string(),
                    occurrence,
                };
                state.injected.push(err.clone());
                err
            })
        };
        match fired {
            Some(err) => {
                lock(&inner.recorder).counter(&format!("fault.injected.{point}"), 1);
                Err(err)
            }
            None => Ok(()),
        }
    }

    /// Record a recovery retry after an injected fault (obs counter
    /// `fault.retries.<point>`).
    pub fn record_retry(&self, point: &str) {
        if let Some(inner) = &self.inner {
            lock(&inner.recorder).counter(&format!("fault.retries.{point}"), 1);
        }
    }

    /// Hits seen at `point` so far.
    pub fn hits(&self, point: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|i| lock(&i.state).hits.get(point).copied().unwrap_or(0))
            .unwrap_or(0)
    }

    /// All faults injected so far, in firing order.
    pub fn injected(&self) -> Vec<FaultError> {
        self.inner
            .as_ref()
            .map(|i| lock(&i.state).injected.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_fires() {
        let f = Faults::disabled();
        for _ in 0..100 {
            assert!(f.hit(SPILL_WRITE).is_ok());
        }
        assert_eq!(f.hits(SPILL_WRITE), 0);
        assert!(f.injected().is_empty());
    }

    #[test]
    fn fires_exactly_once_at_the_armed_occurrence() {
        let f = Faults::from_plan(&FaultPlan::new().fail_at(READER_OPEN, 3));
        assert!(f.hit(READER_OPEN).is_ok());
        assert!(f.hit(READER_OPEN).is_ok());
        let err = f.hit(READER_OPEN).unwrap_err();
        assert_eq!(err.point, READER_OPEN);
        assert_eq!(err.occurrence, 3);
        // One-shot: later hits pass.
        assert!(f.hit(READER_OPEN).is_ok());
        assert_eq!(f.hits(READER_OPEN), 4);
        assert_eq!(f.injected(), vec![err]);
    }

    #[test]
    fn clones_share_hit_counts() {
        let f = Faults::from_plan(&FaultPlan::new().fail_at(DNET_AM, 2));
        let g = f.clone();
        assert!(f.hit(DNET_AM).is_ok());
        assert!(g.hit(DNET_AM).is_err());
        assert_eq!(f.hits(DNET_AM), 2);
    }

    #[test]
    fn independent_points_count_separately() {
        let f = Faults::from_plan(&FaultPlan::new().fail_at(SPILL_WRITE, 1));
        assert!(f.hit(READER_OPEN).is_ok());
        assert!(f.hit(SPILL_WRITE).is_err());
    }

    #[test]
    fn plan_parses() {
        let plan = FaultPlan::parse("gstream.write:3, vgpu.launch:1").unwrap();
        assert_eq!(
            plan,
            FaultPlan::new()
                .fail_at(SPILL_WRITE, 3)
                .fail_at(KERNEL_LAUNCH, 1)
        );
        assert!(FaultPlan::parse("nope").is_err());
        assert!(FaultPlan::parse("gstream.write:0").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn unknown_points_and_malformed_arms_are_typed_and_name_the_catalogue() {
        // A typo'd point must not parse into an arm that never fires.
        let err = FaultPlan::parse("gstream.wrte:3").unwrap_err();
        assert_eq!(
            err,
            FaultSpecError::UnknownPoint {
                point: "gstream.wrte".into()
            }
        );
        // The message lists every valid point so the fix is one read away.
        let msg = err.to_string();
        for point in ALL_POINTS {
            assert!(msg.contains(point), "{msg:?} missing {point}");
        }
        // Unknown names are rejected before the arm shape is inspected.
        assert!(matches!(
            FaultPlan::parse("not.a.point:p50@7"),
            Err(FaultSpecError::UnknownPoint { .. })
        ));
        // Malformed arms on valid points are BadArm with the offending part.
        for spec in [
            "gstream.write",
            "gstream.write:",
            "gstream.write:0",
            "gstream.write:x",
            "qnet.conn.drop:p101",
            "qnet.conn.drop:p5@",
            "qnet.conn.drop:pnope",
        ] {
            match FaultPlan::parse(spec) {
                Err(FaultSpecError::BadArm { part, .. }) => {
                    assert_eq!(part, spec, "part should echo the arm")
                }
                other => panic!("{spec:?} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn probabilistic_arm_is_deterministic_and_stays_armed() {
        let plan = FaultPlan::new().fail_prob(QNET_CONN_DROP, 50, 42);
        let fired: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let f = Faults::from_plan(&plan);
                (1..=200)
                    .filter(|_| f.hit(QNET_CONN_DROP).is_err())
                    .collect()
            })
            .collect();
        // Same plan, same draw: both registries fire on exactly the same
        // occurrences, and a 50 % arm lands well inside (0, 200).
        assert_eq!(fired[0], fired[1]);
        assert!(
            fired[0].len() > 50 && fired[0].len() < 150,
            "{}",
            fired[0].len()
        );
        // The arm never disarms: fresh hits can still fire.
        let f = Faults::from_plan(&plan);
        for _ in 0..200 {
            let _ = f.hit(QNET_CONN_DROP);
        }
        assert_eq!(f.injected().len(), fired[0].len());
    }

    #[test]
    fn probability_extremes_never_and_always_fire() {
        let never = Faults::from_plan(&FaultPlan::new().fail_prob(QNET_ACCEPT, 0, 1));
        let always = Faults::from_plan(&FaultPlan::new().fail_prob(QNET_ACCEPT, 100, 1));
        for _ in 0..50 {
            assert!(never.hit(QNET_ACCEPT).is_ok());
            assert!(always.hit(QNET_ACCEPT).is_err());
        }
    }

    #[test]
    fn probabilistic_specs_parse() {
        let plan =
            FaultPlan::parse("qnet.conn.drop:p5@7, qnet.accept:p3, gstream.write:2").unwrap();
        assert_eq!(
            plan,
            FaultPlan::new()
                .fail_prob(QNET_CONN_DROP, 5, 7)
                .fail_prob(QNET_ACCEPT, 3, 0)
                .fail_at(SPILL_WRITE, 2)
        );
        assert!(FaultPlan::parse("qnet.accept:p101").is_err());
        assert!(FaultPlan::parse("qnet.accept:p5@").is_err());
        assert!(FaultPlan::parse("qnet.accept:pnope").is_err());
    }

    #[test]
    fn recorder_sees_injections_and_retries() {
        let rec = obs::Recorder::new();
        let f = Faults::from_plan(&FaultPlan::new().fail_at(DNET_TOKEN, 1));
        f.set_recorder(rec.clone());
        let span = rec.span("reduce");
        assert!(f.hit(DNET_TOKEN).is_err());
        f.record_retry(DNET_TOKEN);
        drop(span);
        let rollup = obs::Rollup::from_events(&rec.events());
        let root = rollup.root_named("reduce").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("fault.injected.dnet.token"), 1);
        assert_eq!(agg.counter("fault.retries.dnet.token"), 1);
    }
}
