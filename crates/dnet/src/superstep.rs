//! The master's crash-safe superstep log.
//!
//! The distributed pipeline is a BSP computation: each phase proceeds in
//! supersteps (rounds) that end at a barrier where the master joins every
//! worker. After each barrier the master appends one [`SuperstepRecord`] to
//! `superstep.log` in the cluster workdir — which work items completed, the
//! length→rank (or range→rank) ownership table in force, and, for graph
//! commits, the FNV-1a checksum of the out-degree bit-vector token. Every
//! append is fsynced before the master proceeds, so the log is always a
//! consistent prefix of the run.
//!
//! On resume, [`SuperstepLog::recover`] replays the log to rebuild the
//! coordinator's state (`recovery.master_rebuilds`). The crash window is
//! explicit in the format: a record torn mid-append is exactly a final line
//! with no trailing newline — it is dropped (and truncated away) so the
//! superstep it described replays; any *earlier* unparseable or
//! checksum-mismatched line cannot be a crash artifact and fails loudly as
//! [`StreamError::Corrupt`]. The `superstep.write` failpoint
//! ([`faultsim::SUPERSTEP_WRITE`]) models the master crashing at the append
//! point, before any byte reaches the log.

use gstream::{fnv1a, Result, StreamError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the master's log inside the cluster workdir.
pub const LOG_NAME: &str = "superstep.log";

/// Phase name of the header record that opens every log: its
/// `token_checksum` carries the run's config/dataset fingerprint, so a
/// resume against a different run restarts fresh instead of guessing.
pub const HEADER_PHASE: &str = "run";

/// One completed superstep (or the run header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperstepRecord {
    /// Phase: [`HEADER_PHASE`], `map`, `shuffle`, `sort`, `join`, `commit`.
    pub phase: String,
    /// Superstep number within the phase: the round for phase barriers,
    /// the overlap length for `commit` records, 0 for the header.
    pub superstep: u64,
    /// Work-item ids completed in this superstep (input-block ids for
    /// `map`, `(length, range)` item ids elsewhere; empty for commits).
    pub done: Vec<u64>,
    /// Ownership table in force when the superstep completed: length→rank
    /// in token mode, fingerprint-range→rank in range mode.
    pub owners: Vec<u32>,
    /// `commit` records: FNV-1a-64 of the out-degree bit-vector after the
    /// commit. Header records: the run's config/dataset fingerprint.
    pub token_checksum: u64,
}

stdx::impl_json!(struct SuperstepRecord { phase, superstep, done, owners, token_checksum });

impl SuperstepRecord {
    /// The header record opening a fresh log.
    pub fn header(config_hash: u64, owners: Vec<u32>) -> Self {
        SuperstepRecord {
            phase: HEADER_PHASE.to_string(),
            superstep: 0,
            done: Vec::new(),
            owners,
            token_checksum: config_hash,
        }
    }
}

/// Append handle on the master's log. Every append is durable (written,
/// flushed, fsynced) before it returns.
#[derive(Debug)]
pub struct SuperstepLog {
    file: File,
    path: PathBuf,
    faults: faultsim::Faults,
}

/// Everything [`SuperstepLog::recover`] reconstructs from an existing log.
#[derive(Debug)]
pub struct LogRecovery {
    /// All durable records, in append order.
    pub records: Vec<SuperstepRecord>,
    /// Whether a torn tail (a record cut mid-append by a crash) was
    /// dropped. The superstep it described is simply replayed.
    pub torn: bool,
    /// The log, truncated past the torn tail and positioned for appends.
    pub log: SuperstepLog,
}

impl SuperstepLog {
    /// Start a fresh log in `workdir`, truncating any predecessor.
    pub fn create(workdir: &Path, faults: faultsim::Faults) -> Result<Self> {
        let path = workdir.join(LOG_NAME);
        let file = File::create(&path)?;
        file.sync_all()?;
        gstream::fsync_dir(workdir)?;
        Ok(SuperstepLog { file, path, faults })
    }

    /// Durably append one record.
    ///
    /// The `superstep.write` failpoint fires before any byte reaches the
    /// log, so an injected master crash never tears a record — it only
    /// loses the superstep it was about to acknowledge, which a resumed
    /// run replays.
    pub fn append(&mut self, rec: &SuperstepRecord) -> Result<()> {
        self.faults
            .hit(faultsim::SUPERSTEP_WRITE)
            .map_err(StreamError::Fault)?;
        let body = stdx::json::to_string(rec);
        let line = format!("{{\"crc\":{},\"rec\":{}}}\n", fnv1a(body.as_bytes()), body);
        self.file.write_all(line.as_bytes())?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Recover an existing log from `workdir`: parse every record, drop
    /// (and truncate away) a torn final line, and return an append handle
    /// positioned after the last durable record. `Ok(None)` when no log
    /// exists. A complete-but-unreadable record anywhere — including a
    /// framing-checksum mismatch — is external corruption and fails as
    /// [`StreamError::Corrupt`]: a resume never guesses.
    pub fn recover(workdir: &Path, faults: faultsim::Faults) -> Result<Option<LogRecovery>> {
        let path = workdir.join(LOG_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StreamError::Io(e)),
        };
        let mut records = Vec::new();
        let mut torn = false;
        let mut valid_len = 0usize;
        let mut pos = 0usize;
        while pos < bytes.len() {
            match bytes[pos..].iter().position(|&b| b == b'\n') {
                None => {
                    // A final line with no newline is exactly the shape a
                    // crash mid-append leaves: drop it, replay its superstep.
                    torn = true;
                    break;
                }
                Some(n) => {
                    match parse_line(&bytes[pos..pos + n]) {
                        Some(rec) => records.push(rec),
                        None => {
                            return Err(StreamError::Corrupt(format!(
                                "superstep log {} record {} is unreadable (bit flip or \
                                 mid-log damage); refusing to resume from it",
                                path.display(),
                                records.len()
                            )));
                        }
                    }
                    pos += n + 1;
                    valid_len = pos;
                }
            }
        }
        let file = OpenOptions::new().append(true).open(&path)?;
        if torn {
            // Truncate the torn tail so appends restart on a record
            // boundary; otherwise the next append would weld itself onto
            // the partial line and corrupt the log for good.
            file.set_len(valid_len as u64)?;
            file.sync_all()?;
        }
        Ok(Some(LogRecovery {
            records,
            torn,
            log: SuperstepLog { file, path, faults },
        }))
    }
}

/// Parse one framed line: `{"crc":<fnv64-of-rec-bytes>,"rec":<record>}`.
/// The frame is matched textually so the checksum covers the exact bytes
/// the writer hashed. `None` means unreadable (torn or flipped).
fn parse_line(line: &[u8]) -> Option<SuperstepRecord> {
    let s = std::str::from_utf8(line).ok()?;
    let rest = s.strip_prefix("{\"crc\":")?;
    let comma = rest.find(',')?;
    let crc: u64 = rest[..comma].parse().ok()?;
    let body = rest[comma..].strip_prefix(",\"rec\":")?.strip_suffix('}')?;
    if fnv1a(body.as_bytes()) != crc {
        return None;
    }
    stdx::json::from_str(body).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(phase: &str, superstep: u64, done: Vec<u64>) -> SuperstepRecord {
        SuperstepRecord {
            phase: phase.to_string(),
            superstep,
            done,
            owners: vec![0, 1, 0],
            token_checksum: 7,
        }
    }

    #[test]
    fn append_then_recover_roundtrips() {
        let dir = stdx::tempdir().unwrap();
        let mut log = SuperstepLog::create(dir.path(), faultsim::Faults::disabled()).unwrap();
        let header = SuperstepRecord::header(0xfeed, vec![0, 1]);
        log.append(&header).unwrap();
        log.append(&rec("map", 1, vec![0, 2, 5])).unwrap();
        log.append(&rec("commit", 45, vec![])).unwrap();
        drop(log);

        let back = SuperstepLog::recover(dir.path(), faultsim::Faults::disabled())
            .unwrap()
            .unwrap();
        assert!(!back.torn);
        assert_eq!(back.records.len(), 3);
        assert_eq!(back.records[0], header);
        assert_eq!(back.records[1].done, vec![0, 2, 5]);
        assert_eq!(back.records[2].superstep, 45);
    }

    #[test]
    fn missing_log_recovers_as_none() {
        let dir = stdx::tempdir().unwrap();
        assert!(
            SuperstepLog::recover(dir.path(), faultsim::Faults::disabled())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn torn_tail_is_dropped_truncated_and_replayable() {
        let dir = stdx::tempdir().unwrap();
        let mut log = SuperstepLog::create(dir.path(), faultsim::Faults::disabled()).unwrap();
        log.append(&rec("map", 1, vec![0])).unwrap();
        log.append(&rec("shuffle", 1, vec![1])).unwrap();
        drop(log);
        // Simulate a crash mid-append: a partial record, no newline.
        let path = dir.path().join(LOG_NAME);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"crc\":123,\"rec\":{\"phase\":\"so")
            .unwrap();
        drop(f);

        let back = SuperstepLog::recover(dir.path(), faultsim::Faults::disabled())
            .unwrap()
            .unwrap();
        assert!(back.torn, "partial tail must be reported torn");
        assert_eq!(back.records.len(), 2, "durable records survive");

        // The tail was truncated away: appending resumes on a record
        // boundary and a second recovery sees a clean log.
        let mut log = back.log;
        log.append(&rec("sort", 1, vec![2])).unwrap();
        drop(log);
        let again = SuperstepLog::recover(dir.path(), faultsim::Faults::disabled())
            .unwrap()
            .unwrap();
        assert!(!again.torn);
        assert_eq!(again.records.len(), 3);
        assert_eq!(again.records[2].phase, "sort");
    }

    #[test]
    fn bit_flip_in_the_middle_fails_loudly() {
        let dir = stdx::tempdir().unwrap();
        let mut log = SuperstepLog::create(dir.path(), faultsim::Faults::disabled()).unwrap();
        log.append(&rec("map", 1, vec![0])).unwrap();
        log.append(&rec("map", 2, vec![1])).unwrap();
        drop(log);
        let path = dir.path().join(LOG_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's body (past the frame).
        let i = 20;
        bytes[i] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = SuperstepLog::recover(dir.path(), faultsim::Faults::disabled()).unwrap_err();
        assert!(format!("{err}").contains("unreadable"), "{err}");
    }

    #[test]
    fn complete_but_garbled_final_line_is_corrupt_not_torn() {
        let dir = stdx::tempdir().unwrap();
        let mut log = SuperstepLog::create(dir.path(), faultsim::Faults::disabled()).unwrap();
        log.append(&rec("map", 1, vec![0])).unwrap();
        drop(log);
        let path = dir.path().join(LOG_NAME);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        // Newline-terminated garbage cannot be a torn append (appends tear
        // before the newline): it is damage, not a crash artifact.
        f.write_all(b"{\"crc\":1,\"rec\":{}}\n").unwrap();
        drop(f);
        assert!(SuperstepLog::recover(dir.path(), faultsim::Faults::disabled()).is_err());
    }

    #[test]
    fn injected_superstep_write_fault_loses_only_the_unacked_record() {
        let dir = stdx::tempdir().unwrap();
        let faults = faultsim::Faults::from_plan(
            &faultsim::FaultPlan::new().fail_at(faultsim::SUPERSTEP_WRITE, 2),
        );
        let mut log = SuperstepLog::create(dir.path(), faults).unwrap();
        log.append(&rec("map", 1, vec![0])).unwrap();
        let err = log.append(&rec("map", 2, vec![1])).unwrap_err();
        assert!(matches!(err, StreamError::Fault(_)), "got {err}");
        drop(log);
        // The failed append left no byte behind: the log is a clean prefix.
        let back = SuperstepLog::recover(dir.path(), faultsim::Faults::disabled())
            .unwrap()
            .unwrap();
        assert!(!back.torn);
        assert_eq!(back.records.len(), 1);
    }
}
