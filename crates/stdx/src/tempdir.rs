use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory under `std::env::temp_dir()` that is removed, with its
/// contents, when the value drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

/// Creates a fresh, uniquely named temporary directory.
pub fn tempdir() -> io::Result<TempDir> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = std::env::temp_dir();
    loop {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("stdx-{}-{n}", std::process::id()));
        match std::fs::create_dir(&path) {
            Ok(()) => return Ok(TempDir { path }),
            // A leftover of a dead process that had this pid: take the next name.
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(e),
        }
    }
}

impl TempDir {
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Nothing useful can be done with a failure here, and Drop must not panic.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_distinct_and_removed_on_drop() {
        let a = tempdir().unwrap();
        let b = tempdir().unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"x").unwrap();
        std::fs::create_dir(a.path().join("sub")).unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn a_taken_name_is_skipped() {
        let first = tempdir().unwrap();
        // Occupy the name the counter would hand out next.
        let n: u64 = first
            .path()
            .file_name()
            .and_then(|s| s.to_str())
            .and_then(|s| s.rsplit('-').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        let mut squatters = Vec::new();
        for k in 1..=4 {
            let p = std::env::temp_dir().join(format!("stdx-{}-{}", std::process::id(), n + k));
            if std::fs::create_dir(&p).is_ok() {
                squatters.push(p);
            }
        }
        let next = tempdir().unwrap();
        assert!(next.path().is_dir());
        assert!(!squatters.iter().any(|p| p == next.path()));
        for p in squatters {
            std::fs::remove_dir(p).unwrap();
        }
    }
}
