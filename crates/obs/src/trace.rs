//! A bounded, overwrite-oldest ring of structured trace events.
//!
//! The engine records one event per apply batch; the ring keeps the last
//! `capacity` of them so the recent history can be dumped on demand or
//! when a maintenance pass panics. The ring is a plain value: the engine
//! keeps it inside its metrics registry, under the lock that registry
//! already takes once per batch.

use std::collections::VecDeque;

/// A bounded ring of `(sequence, event)` pairs that overwrites its oldest
/// entry when full. Sequence numbers are assigned at push time, start at
/// 1, and never repeat, so a dump shows both the events and how many fell
/// off the back.
#[derive(Debug, Clone)]
pub struct TraceRing<T> {
    capacity: usize,
    next_seq: u64,
    buf: VecDeque<(u64, T)>,
}

impl<T> TraceRing<T> {
    /// A ring holding at most `capacity` events (`capacity` ≥ 1).
    pub fn new(capacity: usize) -> TraceRing<T> {
        assert!(capacity >= 1, "a trace ring needs at least one slot");
        TraceRing {
            capacity,
            next_seq: 1,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Append an event, evicting the oldest if the ring is full. Returns
    /// the event's sequence number.
    pub fn push(&mut self, event: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back((seq, event));
        seq
    }

    /// Total events ever pushed (retained or evicted).
    pub fn total_pushed(&self) -> u64 {
        self.next_seq - 1
    }
}

impl<T: Clone> TraceRing<T> {
    /// The retained events, oldest first, with their sequence numbers.
    pub fn recent(&self) -> Vec<(u64, T)> {
        self.buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_keeps_sequence() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            assert_eq!(ring.push(i), i + 1, "sequences are 1-based and dense");
        }
        assert_eq!(ring.total_pushed(), 5);
        assert_eq!(ring.recent(), vec![(3, 2), (4, 3), (5, 4)]);
    }

    #[test]
    fn clone_copies_the_history() {
        let mut ring = TraceRing::new(2);
        ring.push("a");
        let copy = ring.clone();
        ring.push("b");
        assert_eq!(copy.recent(), vec![(1, "a")], "clone is independent");
        assert_eq!(ring.recent(), vec![(1, "a"), (2, "b")]);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_is_rejected() {
        let _ = TraceRing::<u32>::new(0);
    }
}
