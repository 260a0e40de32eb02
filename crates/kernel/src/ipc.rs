//! Synchronous IPC endpoints with optional deterministic delivery.
//!
//! §3.2: timing of Hi-observable events — e.g. a crypto *downgrader*
//! handing ciphertext to a network stack (Figure 1) — is a channel if
//! message-passing times depend on secrets. The defence the paper adopts
//! from Cock et al. (2014): "a synchronous IPC channel switches to the
//! receiver only once the sender domain has executed for a pre-determined
//! minimum amount of time", chosen by the system designer to cover the
//! sender's WCET.
//!
//! [`Endpoint`] realises both behaviours. Without a minimum time, a
//! message is deliverable at its send time (the leaky fast path). With
//! `min_delivery`, a message becomes deliverable no earlier than the
//! sender's slice start plus the threshold — the send instant is erased.

use std::collections::VecDeque;

use crate::domain::DomainId;
use tp_hw::types::Cycles;

/// A queued message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedMsg {
    /// Payload word.
    pub msg: u64,
    /// Earliest clock value at which delivery may occur.
    pub ready_at: Cycles,
    /// Sending domain (for bookkeeping/diagnostics only — the receiver's
    /// observation never includes this).
    pub sender: DomainId,
}

/// Configuration of one endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EndpointSpec {
    /// Cock-et-al. minimum delivery time, measured from the *sender's
    /// slice start*. `None` = deliver at send time (leaky).
    pub min_delivery: Option<Cycles>,
}

/// A synchronous endpoint: a bounded-order message queue plus a record of
/// which domain is blocked receiving on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    spec: EndpointSpec,
    queue: VecDeque<QueuedMsg>,
    /// Domain currently blocked in `Recv` on this endpoint, if any.
    waiting: Option<DomainId>,
}

impl Endpoint {
    /// An endpoint with the given spec.
    pub fn new(spec: EndpointSpec) -> Self {
        Endpoint {
            spec,
            queue: VecDeque::new(),
            waiting: None,
        }
    }

    /// The endpoint's spec.
    pub fn spec(&self) -> EndpointSpec {
        self.spec
    }

    /// Enqueue a message sent at `now` by a sender whose current slice
    /// started at `sender_slice_start`. Returns the computed
    /// `ready_at` (the deterministic-delivery mechanism, §3.2).
    pub fn send(
        &mut self,
        msg: u64,
        sender: DomainId,
        now: Cycles,
        sender_slice_start: Cycles,
    ) -> Cycles {
        let ready_at = match self.spec.min_delivery {
            // The deterministic time: slice start + threshold, regardless
            // of when inside the slice the send happened. If the sender
            // overran the threshold, delivery degrades to the send time.
            // Nothing flags such an overrun yet (ROADMAP item 1).
            Some(min) => {
                let t = sender_slice_start + min;
                if t.0 >= now.0 {
                    t
                } else {
                    now
                }
            }
            None => now,
        };
        self.queue.push_back(QueuedMsg {
            msg,
            ready_at,
            sender,
        });
        ready_at
    }

    /// Enqueue a message with an explicitly computed `ready_at`. The
    /// kernel sends through this, at the send time, when
    /// [`crate::config::TimeProtConfig::deterministic_ipc`] is off, and
    /// through [`Endpoint::send`] when it is on.
    pub fn send_at(&mut self, msg: u64, sender: DomainId, ready_at: Cycles) {
        self.queue.push_back(QueuedMsg {
            msg,
            ready_at,
            sender,
        });
    }

    /// A message whose `ready_at` has passed, if any (FIFO order).
    pub fn deliverable(&self, now: Cycles) -> Option<QueuedMsg> {
        self.queue
            .front()
            .copied()
            .filter(|m| m.ready_at.0 <= now.0)
    }

    /// Remove and return the front message if deliverable.
    pub fn take_deliverable(&mut self, now: Cycles) -> Option<QueuedMsg> {
        if self.deliverable(now).is_some() {
            self.queue.pop_front()
        } else {
            None
        }
    }

    /// When the front message becomes deliverable (for idle-until logic).
    pub fn next_ready_at(&self) -> Option<Cycles> {
        self.queue.front().map(|m| m.ready_at)
    }

    /// Record `d` as blocked receiving here.
    pub fn set_waiting(&mut self, d: DomainId) {
        self.waiting = Some(d);
    }

    /// Clear and return the blocked receiver.
    pub fn take_waiting(&mut self) -> Option<DomainId> {
        self.waiting.take()
    }

    /// The blocked receiver, if any.
    pub fn waiting(&self) -> Option<DomainId> {
        self.waiting
    }

    /// Queue depth (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DomainId = DomainId(0);

    #[test]
    fn fast_path_delivers_at_send_time() {
        let mut ep = Endpoint::new(EndpointSpec { min_delivery: None });
        let r = ep.send(42, D0, Cycles(500), Cycles(100));
        assert_eq!(r, Cycles(500), "leaky: ready at send time");
        assert_eq!(ep.deliverable(Cycles(499)), None);
        assert_eq!(ep.deliverable(Cycles(500)).unwrap().msg, 42);
    }

    #[test]
    fn deterministic_delivery_erases_send_time() {
        let spec = EndpointSpec {
            min_delivery: Some(Cycles(1000)),
        };
        // Two sends at very different instants within the slice...
        let mut early = Endpoint::new(spec);
        let mut late = Endpoint::new(spec);
        let r1 = early.send(1, D0, Cycles(150), Cycles(100));
        let r2 = late.send(1, D0, Cycles(1050), Cycles(100));
        // ...become deliverable at the same deterministic instant.
        assert_eq!(r1, Cycles(1100));
        assert_eq!(r2, Cycles(1100));
    }

    #[test]
    fn threshold_overrun_degrades_to_send_time() {
        let spec = EndpointSpec {
            min_delivery: Some(Cycles(10)),
        };
        let mut ep = Endpoint::new(spec);
        let r = ep.send(1, D0, Cycles(5000), Cycles(100));
        assert_eq!(r, Cycles(5000), "unsafe threshold: send time leaks again");
    }

    #[test]
    fn fifo_order_and_take() {
        let mut ep = Endpoint::new(EndpointSpec::default());
        ep.send(1, D0, Cycles(10), Cycles(0));
        ep.send(2, D0, Cycles(20), Cycles(0));
        assert_eq!(ep.queue_len(), 2);
        assert_eq!(ep.take_deliverable(Cycles(15)).unwrap().msg, 1);
        assert_eq!(
            ep.take_deliverable(Cycles(15)),
            None,
            "second not ready yet"
        );
        assert_eq!(ep.take_deliverable(Cycles(25)).unwrap().msg, 2);
    }

    #[test]
    fn waiting_receiver_bookkeeping() {
        let mut ep = Endpoint::new(EndpointSpec::default());
        assert_eq!(ep.waiting(), None);
        ep.set_waiting(DomainId(3));
        assert_eq!(ep.waiting(), Some(DomainId(3)));
        assert_eq!(ep.take_waiting(), Some(DomainId(3)));
        assert_eq!(ep.take_waiting(), None);
    }

    #[test]
    fn next_ready_at_reports_front() {
        let mut ep = Endpoint::new(EndpointSpec {
            min_delivery: Some(Cycles(100)),
        });
        assert_eq!(ep.next_ready_at(), None);
        ep.send(9, D0, Cycles(10), Cycles(0));
        assert_eq!(ep.next_ready_at(), Some(Cycles(100)));
    }
}
