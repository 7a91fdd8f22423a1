//! Simulation time and a deterministic event queue.
//!
//! Time is a `u64` count of microseconds since session start. The event
//! queue is a binary heap with a tie-breaking sequence number so events
//! scheduled for the same instant fire in insertion order — determinism
//! the experiments rely on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0, "time cannot be negative");
        SimTime((s * 1e6).round() as u64)
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("negative SimTime"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    events: Vec<Option<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            events: Vec::new(),
            seq: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let idx = self.events.len();
        self.events.push(Some(event));
        self.heap.push(Reverse((at, self.seq, idx)));
        self.seq += 1;
    }

    /// Time of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((t, _, idx)) = self.heap.pop()?;
        let event = self.events[idx].take().expect("event already taken");
        Some((t, event))
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_micros(500);
        assert_eq!((a + b).as_micros(), 5_500);
        assert_eq!((a - b).as_micros(), 4_500);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "negative SimTime")]
    fn negative_subtraction_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    fn queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(7);
        for i in 0..5 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
