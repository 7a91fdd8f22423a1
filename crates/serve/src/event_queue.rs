//! The per-server calendar queue driving the discrete-event fleet core.
//!
//! Each [`crate::fleet`] server owns one [`EventQueue`]: a binary heap of
//! `(time, kind)` pairs popped in a canonical total order, so per-step
//! cost scales with *pending events*, not with the total session count.
//! Two invariants make the queue safe to drive a deterministic fluid
//! simulation:
//!
//! * **Monotone advance.** [`EventQueue::schedule`] clamps every event to
//!   `now` or later, and the completion-estimate path additionally
//!   schedules strictly after `now` — a zero-rate session can therefore
//!   never propose an event at or before the current instant and spin
//!   the loop without progress (the satellite-2 guard; see
//!   `fleet::tests::starved_fleet_terminates_at_hard_stop`).
//! * **Canonical instant order.** Events at the same instant pop in
//!   [`EventKind`] order — restart, crashes, wakes, completion probes,
//!   tick — with ties inside a kind broken by session id. This mirrors
//!   the per-iteration phase order of the pre-DES serial loop, so the
//!   refactor preserves the old loop's within-instant semantics.
//!
//! Completion estimates are *lazy*: rates change whenever the active set
//! changes, so estimates carry a generation stamp and a stale pop is
//! simply ignored (the owning server re-probes after every processed
//! instant). This is the classic calendar-queue trick that avoids
//! deleting superseded heap entries.

use nerve_net::bytes::{ByteReader, ByteWriter, FrameError, Wire};
use nerve_net::clock::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a scheduled instant means to the server. Variant order is load
/// bearing: derived `Ord` gives the canonical within-instant processing
/// order (restart < crash < wake < completion probe < tick).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// The server's restart window opens.
    Restart,
    /// An evacuated session's ticket lands (failover arrival). Ordered
    /// before crashes and wakes so a landing session can process its
    /// own due crash/wake at the same instant.
    Arrive { session: usize },
    /// A session's next crash instant is due.
    Crash { session: usize },
    /// A waiting session may start its next chunk (stale if its wake
    /// deadline moved, e.g. a crash extended it).
    Wake { session: usize },
    /// Earliest-completion estimate computed at generation `gen`; stale
    /// when the server's rate generation has moved past it.
    Completion { gen: u64 },
    /// Batcher flush boundary / rate re-evaluation cadence.
    Tick,
}

/// A tag byte, then the variant's field.
impl Wire for EventKind {
    fn put(&self, w: &mut ByteWriter) {
        match *self {
            EventKind::Restart => w.u8(0),
            EventKind::Arrive { session } => {
                w.u8(1);
                w.usize(session);
            }
            EventKind::Crash { session } => {
                w.u8(2);
                w.usize(session);
            }
            EventKind::Wake { session } => {
                w.u8(3);
                w.usize(session);
            }
            EventKind::Completion { gen } => {
                w.u8(4);
                w.u64(gen);
            }
            EventKind::Tick => w.u8(5),
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        Ok(match r.u8()? {
            0 => EventKind::Restart,
            1 => EventKind::Arrive {
                session: r.usize()?,
            },
            2 => EventKind::Crash {
                session: r.usize()?,
            },
            3 => EventKind::Wake {
                session: r.usize()?,
            },
            4 => EventKind::Completion { gen: r.u64()? },
            5 => EventKind::Tick,
            v => return Err(FrameError::bad_field("event_kind", v)),
        })
    }
}

/// One scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    pub at: SimTime,
    pub kind: EventKind,
}

nerve_net::wire_record!(Event { at, kind });

/// A deterministic min-heap of [`Event`]s.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `at`, clamped to `now` so queue time never runs
    /// backwards (events landing in the past fire at the current
    /// instant instead).
    pub fn schedule(&mut self, now: SimTime, at: SimTime, kind: EventKind) {
        self.heap.push(Reverse(Event {
            at: at.max(now),
            kind,
        }));
    }

    /// Schedule strictly after `now` (at least one microsecond later):
    /// the monotone-advance guard for self-rescheduling events such as
    /// completion probes, whose estimate can round to zero.
    pub fn schedule_after(&mut self, now: SimTime, at: SimTime, kind: EventKind) {
        self.heap.push(Reverse(Event {
            at: at.max(SimTime(now.0 + 1)),
            kind,
        }));
    }

    /// Time of the next pending event, if any.
    pub fn peek(&self) -> Option<Event> {
        self.heap.peek().map(|Reverse(e)| *e)
    }

    /// Pop the next event if it is due at or before `limit`.
    pub fn pop_due(&mut self, limit: SimTime) -> Option<Event> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.at <= limit => self.heap.pop().map(|Reverse(e)| e),
            _ => None,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Drop every pending event (fail-stop: a dead server's calendar is
    /// void).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The pending events in canonical (time, kind) order — the
    /// checkpoint codec serializes this so a resumed heap pops in the
    /// exact same order.
    pub fn sorted_events(&self) -> Vec<Event> {
        let mut v: Vec<Event> = self.heap.iter().map(|Reverse(e)| *e).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    #[test]
    fn pops_in_time_then_kind_then_session_order() {
        let mut q = EventQueue::new();
        let now = t(0);
        q.schedule(now, t(10), EventKind::Tick);
        q.schedule(now, t(10), EventKind::Wake { session: 3 });
        q.schedule(now, t(10), EventKind::Wake { session: 1 });
        q.schedule(now, t(10), EventKind::Crash { session: 9 });
        q.schedule(now, t(10), EventKind::Restart);
        q.schedule(now, t(5), EventKind::Tick);
        let order: Vec<Event> = std::iter::from_fn(|| q.pop_due(t(100))).collect();
        assert_eq!(
            order[0],
            Event {
                at: t(5),
                kind: EventKind::Tick
            }
        );
        assert_eq!(order[1].kind, EventKind::Restart);
        assert_eq!(order[2].kind, EventKind::Crash { session: 9 });
        assert_eq!(order[3].kind, EventKind::Wake { session: 1 });
        assert_eq!(order[4].kind, EventKind::Wake { session: 3 });
        assert_eq!(order[5].kind, EventKind::Tick);
    }

    #[test]
    fn schedule_clamps_to_now_and_schedule_after_moves_strictly_forward() {
        let mut q = EventQueue::new();
        let now = t(100);
        q.schedule(now, t(40), EventKind::Wake { session: 0 });
        assert_eq!(q.peek().unwrap().at, now, "past events fire at now");
        let mut q = EventQueue::new();
        q.schedule_after(now, t(100), EventKind::Completion { gen: 1 });
        assert_eq!(
            q.peek().unwrap().at,
            t(101),
            "completion probes must advance time"
        );
    }

    #[test]
    fn pop_due_respects_the_limit() {
        let mut q = EventQueue::new();
        q.schedule(t(0), t(50), EventKind::Tick);
        assert!(q.pop_due(t(49)).is_none());
        assert!(q.pop_due(t(50)).is_some());
        assert!(q.is_empty());
    }
}
