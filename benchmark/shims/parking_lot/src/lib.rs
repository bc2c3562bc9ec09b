//! Stand-in for the `parking_lot` items the crates use, over `std::sync`.
//!
//! The sandbox has no crate registry, so `benchmark/Cargo.toml` patches
//! `parking_lot` to this package. Semantics kept: `lock()` returns the
//! guard directly (a poisoned std mutex is recovered, because parking_lot
//! has no poisoning), and `Condvar` waits take the guard by `&mut`.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};
use std::time::Duration;

#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

pub struct MutexGuard<'a, T>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard is only empty inside a wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard is only empty inside a wait")
    }
}

pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard is only empty inside a wait");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard is only empty inside a wait");
        let (inner, result) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }
}
