//! The simulator's events and its event queue, which binds [`EventKind`] to
//! the [`crate::queue`] calendar scheduler. Simultaneous events dispatch in
//! scheduling order (the scheduler's `(time, seq)` contract), keeping runs
//! deterministic.

use crate::addr::HostAddr;
use crate::app::{ConnId, NodeId, TimerToken};
use crate::pool::Payload;
use crate::queue::CalendarQueue;

#[derive(Debug)]
pub(crate) enum EventKind {
    /// Deliver `on_start` to a freshly spawned node.
    Start { node: NodeId },
    /// An outbound SYN reaches the target address.
    ConnAttempt { conn: ConnId, target: HostAddr },
    /// Bytes reach the receiving endpoint of `conn`.
    Data {
        conn: ConnId,
        to: NodeId,
        data: Payload,
    },
    /// A close notification reaches the peer.
    CloseNotify { conn: ConnId, to: NodeId },
    /// A fault-injected connection reset reaches `to`. Unlike
    /// [`EventKind::CloseNotify`] this carries no connection-table entry —
    /// the entry is removed when the reset is sampled — so both endpoints
    /// can be notified independently.
    Reset { conn: ConnId, to: NodeId },
    /// Churn session: the node loses power.
    ChurnDown { node: NodeId },
    /// Churn session: the node comes back online.
    ChurnUp { node: NodeId },
    /// An app timer fires.
    Timer { node: NodeId, token: TimerToken },
}

/// The serial simulator's deterministic event queue: the calendar queue
/// over [`EventKind`], the same scheduler each shard of the sharded engine
/// runs.
pub(crate) type EventQueue = CalendarQueue<EventKind>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{HeapQueue, Scheduler};
    use crate::time::SimTime;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn timer(token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(0),
            token,
        }
    }

    fn token(kind: EventKind) -> u64 {
        match kind {
            EventKind::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    /// Pushes `(time, token)` timers into the event queue and into the
    /// reference heap, then drains both: the event queue must dispatch in
    /// the heap's `(time, insertion order)` order.
    fn drain_matches_heap(pushes: &[(u64, u64)]) -> Vec<u64> {
        let mut q = EventQueue::default();
        let mut heap = HeapQueue::default();
        for &(at, tok) in pushes {
            q.push(t(at), timer(tok));
            heap.push(t(at), tok);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, kind)| token(kind))
            .collect();
        let oracle: Vec<u64> = std::iter::from_fn(|| heap.pop())
            .map(|(_, tok)| tok)
            .collect();
        assert_eq!(order, oracle);
        order
    }

    #[test]
    fn pops_in_time_order() {
        assert_eq!(drain_matches_heap(&[(30, 3), (10, 1), (20, 2)]), [1, 2, 3]);
    }

    #[test]
    fn ties_break_on_insertion_order() {
        let pushes: Vec<(u64, u64)> = (0..100).map(|tok| (5, tok)).collect();
        assert_eq!(drain_matches_heap(&pushes), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(t(50), timer(0));
        q.push(t(5), timer(0));
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
    }
}
