//! Bounded admission for the serving tier.
//!
//! Callers waiting for a solve slot are not bounded by the slots
//! themselves, so boundedness lives at the door: the server's admission
//! gate counts requests in flight — admitted on the calling thread,
//! released the moment the reply is ready — and refuses new work beyond
//! its capacity
//! ([`ServeConfig::queue_capacity`](crate::ServeConfig::queue_capacity)).
//! The overload policy is *shed newest*: the request that would
//! overflow is the one answered [`ServeError::QueueFull`], so admitted
//! work is never abandoned halfway.

use crate::ServeError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// The in-flight request counter: a capacity, a counter, and a
/// shutting-down latch. One gate per server, shared by every handle.
#[derive(Debug)]
pub(crate) struct AdmissionGate {
    capacity: usize,
    in_flight: AtomicUsize,
    closed: AtomicBool,
}

impl AdmissionGate {
    /// A gate admitting at most `capacity` concurrent requests
    /// (clamped to at least 1).
    pub(crate) fn new(capacity: usize) -> AdmissionGate {
        AdmissionGate {
            capacity: capacity.max(1),
            in_flight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Latches the gate shut: every later
    /// [`try_acquire`](AdmissionGate::try_acquire) fails with
    /// [`ServeError::Closed`]. Permits already out stay valid.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Admits one request, or says why not: [`ServeError::Closed`] once
    /// the gate is closed, [`ServeError::QueueFull`] at capacity. The
    /// returned [`Permit`] releases its slot on drop.
    pub(crate) fn try_acquire(self: &Arc<Self>) -> Result<Permit, ServeError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ServeError::Closed);
        }
        let mut current = self.in_flight.load(Ordering::SeqCst);
        loop {
            if current >= self.capacity {
                return Err(ServeError::QueueFull);
            }
            match self.in_flight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    return Ok(Permit {
                        gate: Arc::clone(self),
                    })
                }
                Err(actual) => current = actual,
            }
        }
    }
}

/// One admitted request's slot; dropping it releases the slot. Held by
/// the request through its wait for a solve slot and its solve, and
/// dropped *before* the request is counted as answered, so a caller
/// that has received all its replies observes zero of its own permits
/// outstanding.
#[derive(Debug)]
pub(crate) struct Permit {
    gate: Arc<AdmissionGate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_up_to_capacity_then_sheds() {
        let gate = Arc::new(AdmissionGate::new(2));
        let a = gate.try_acquire().unwrap();
        let _b = gate.try_acquire().unwrap();
        assert_eq!(gate.in_flight.load(Ordering::SeqCst), 2);
        assert_eq!(gate.try_acquire().unwrap_err(), ServeError::QueueFull);
        drop(a);
        assert_eq!(gate.in_flight.load(Ordering::SeqCst), 1);
        let _c = gate.try_acquire().unwrap();
    }

    #[test]
    fn closed_gate_refuses_everything() {
        let gate = Arc::new(AdmissionGate::new(8));
        let held = gate.try_acquire().unwrap();
        gate.close();
        assert_eq!(gate.try_acquire().unwrap_err(), ServeError::Closed);
        // Outstanding permits still release cleanly.
        drop(held);
        assert_eq!(gate.in_flight.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let gate = Arc::new(AdmissionGate::new(0));
        let _p = gate.try_acquire().unwrap();
        assert!(gate.try_acquire().is_err());
    }
}
