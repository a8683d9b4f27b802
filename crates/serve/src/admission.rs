//! Bounded admission for the serving tier.
//!
//! The submission channel itself is unbounded (`std::sync::mpsc` has
//! no bounded non-blocking sender), so boundedness lives one layer up:
//! an [`AdmissionGate`] counts requests in flight — admitted at submit
//! time, released the moment a reply is sent — and refuses new work
//! beyond its capacity. The overload policy is *shed newest*: the
//! request that would overflow is the one rejected, with
//! [`SubmitError::QueueFull`] (or an immediate
//! [`crate::ServeError::QueueFull`] reply on the ticket paths), so
//! admitted work is never abandoned halfway.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a submission was refused at the door.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The server already has `capacity` requests in flight; this one
    /// was shed (shed-newest overload policy).
    QueueFull {
        /// The gate's configured capacity.
        capacity: usize,
    },
    /// The server is shutting down (or its worker pool died with the
    /// restart budget exhausted); no new work is admitted.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} requests in flight)")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The in-flight request counter: a capacity, a counter, and a
/// shutting-down latch. One gate per server, shared by every handle.
#[derive(Debug)]
pub struct AdmissionGate {
    capacity: usize,
    in_flight: AtomicUsize,
    closed: AtomicBool,
}

impl AdmissionGate {
    /// A gate admitting at most `capacity` concurrent requests
    /// (clamped to at least 1).
    pub fn new(capacity: usize) -> AdmissionGate {
        AdmissionGate {
            capacity: capacity.max(1),
            in_flight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently holding a permit.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Latches the gate shut: every later
    /// [`try_acquire`](AdmissionGate::try_acquire) fails with
    /// [`SubmitError::ShuttingDown`]. Permits already out stay valid.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// Whether the gate has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Admits one request, or says why not. The returned [`Permit`]
    /// releases its slot on drop.
    pub fn try_acquire(self: &Arc<Self>) -> Result<Permit, SubmitError> {
        if self.is_closed() {
            return Err(SubmitError::ShuttingDown);
        }
        let mut current = self.in_flight.load(Ordering::SeqCst);
        loop {
            if current >= self.capacity {
                return Err(SubmitError::QueueFull {
                    capacity: self.capacity,
                });
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
/// the request through the dispatcher and workers, and dropped *before*
/// the reply is sent, so a caller that has received all its replies
/// observes zero of its own permits outstanding.
#[derive(Debug)]
pub struct Permit {
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
        assert_eq!(gate.in_flight(), 2);
        assert_eq!(
            gate.try_acquire().unwrap_err(),
            SubmitError::QueueFull { capacity: 2 }
        );
        drop(a);
        assert_eq!(gate.in_flight(), 1);
        let _c = gate.try_acquire().unwrap();
    }

    #[test]
    fn closed_gate_refuses_everything() {
        let gate = Arc::new(AdmissionGate::new(8));
        let held = gate.try_acquire().unwrap();
        gate.close();
        assert_eq!(gate.try_acquire().unwrap_err(), SubmitError::ShuttingDown);
        // Outstanding permits still release cleanly.
        drop(held);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let gate = Arc::new(AdmissionGate::new(0));
        let _p = gate.try_acquire().unwrap();
        assert!(gate.try_acquire().is_err());
    }
}
