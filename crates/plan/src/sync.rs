//! Poison-recovering lock helpers, shared by the plan cache and the
//! serving layer built on top of it.
//!
//! Every lock in these crates guards state with no cross-field
//! invariant a panic could break mid-update (maps and region lists are
//! inserted into whole, and a recording publishes its region only once
//! it is complete), so a poisoned lock is always safe to recover rather
//! than propagate.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-locks `lock`, recovering from poisoning.
pub fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks `lock`, recovering from poisoning.
pub fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Locks `lock`, recovering from poisoning.
pub fn mutex_lock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}
