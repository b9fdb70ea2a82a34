//! The event scheduler.
//!
//! The [`Scheduler`] contract is deterministic: items pushed with a
//! [`SimTime`] pop back in `(time, insertion order)` order. The original
//! implementation, a `BinaryHeap` over `(time, seq)`, cost `O(log n)`
//! comparisons per push and pop on a heap that reaches hundreds of
//! thousands of entries at paper scale.
//!
//! [`CalendarQueue`] replaced it (Brown, CACM 1988) and is the only
//! scheduler both engines run: time is hashed into a power-of-two ring of
//! buckets of fixed width, so a push is `O(1)` ring insertion and a pop
//! only ever sorts the one bucket the clock currently points at. Discrete-event traffic is
//! heavily clustered around "now" (link transmit delays, sub-second
//! latencies, short timers), which keeps buckets small; events beyond the
//! ring's horizon go to an overflow heap and are pulled forward as the
//! cursor reaches them, so far-future timers stay cheap too.
//!
//! The binary heap survives, test-only, as `HeapQueue`: the reference
//! oracle for the equivalence tests below and in `event.rs`.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Log2 of the bucket width in microseconds: 2^15 µs ≈ 32.8 ms per bucket.
/// Chosen to bracket the simulated latency floor (20 ms) so consecutive
/// deliveries land in the current or next few buckets.
const BUCKET_SHIFT: u32 = 15;
/// Number of buckets in the ring (power of two). Horizon =
/// `BUCKETS << BUCKET_SHIFT` ≈ 134 simulated seconds; anything further out
/// waits in the overflow heap.
const BUCKETS: usize = 4096;

struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: std's BinaryHeap is a max-heap, we want the min first.
        other.key().cmp(&self.key())
    }
}

/// The scheduler interface the simulator core and the benchmarks share.
pub trait Scheduler<T> {
    /// Enqueues `item` at `time`. Items at equal times dequeue in push
    /// order.
    fn push(&mut self, time: SimTime, item: T);
    /// Enqueues `item` at `time` under an explicit tie-break key instead of
    /// the auto-assigned insertion sequence: equal-time items dequeue in
    /// ascending `seq` order regardless of push order. The sharded
    /// simulator derives `seq` from `(source node, per-source counter)` so
    /// the dispatch order is a pure function of the event set, not of which
    /// thread pushed first. Do not mix with [`Scheduler::push`] on the same
    /// queue — the auto sequence would collide with caller keys.
    fn push_keyed(&mut self, time: SimTime, seq: u64, item: T);
    /// Removes and returns the earliest item.
    fn pop(&mut self) -> Option<(SimTime, T)>;
    /// Like [`Scheduler::pop`], but also returns the item's tie-break key.
    fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)>;
    /// The timestamp [`Scheduler::pop`] would return next. Takes `&mut
    /// self` so implementations may reorganise lazily.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Number of queued items.
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The original `(time, seq)` binary-heap scheduler, kept as the test
/// oracle.
#[cfg(test)]
pub(crate) struct HeapQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

#[cfg(test)]
impl<T> Default for HeapQueue<T> {
    fn default() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

#[cfg(test)]
impl<T> Scheduler<T> for HeapQueue<T> {
    fn push(&mut self, time: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, item });
    }

    fn push_keyed(&mut self, time: SimTime, seq: u64, item: T) {
        self.heap.push(Entry { time, seq, item });
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.item))
    }

    fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.item))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// A bucketed calendar queue with an overflow heap for far-future events.
///
/// Invariant: every entry in the ring lives in the slot of its *absolute*
/// bucket index (`time >> BUCKET_SHIFT`), and that index is within
/// `[cursor, cursor + BUCKETS)`. Entries at or past the horizon sit in
/// `overflow` and are migrated into the ring as the cursor advances.
/// Because the ring is indexed modulo `BUCKETS`, every entry found in slot
/// `cursor % BUCKETS` is known to belong to bucket `cursor` exactly.
pub struct CalendarQueue<T> {
    ring: Vec<Vec<Entry<T>>>,
    /// Absolute index of the earliest bucket that may hold entries.
    cursor: u64,
    /// Whether the current bucket is sorted descending by `(time, seq)`
    /// (popped from the back).
    sorted: bool,
    /// Entries with `abs_bucket >= cursor + BUCKETS`.
    overflow: BinaryHeap<Entry<T>>,
    ring_len: usize,
    next_seq: u64,
    /// Peak total occupancy, for the depth statistics.
    high_water: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        let mut ring = Vec::with_capacity(BUCKETS);
        ring.resize_with(BUCKETS, Vec::new);
        CalendarQueue {
            ring,
            cursor: 0,
            sorted: false,
            overflow: BinaryHeap::new(),
            ring_len: 0,
            next_seq: 0,
            high_water: 0,
        }
    }
}

impl<T> CalendarQueue<T> {
    fn abs_bucket(time: SimTime) -> u64 {
        time.as_micros() >> BUCKET_SHIFT
    }

    /// Peak number of simultaneously queued items over the queue's life.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    fn insert_ring(&mut self, entry: Entry<T>) {
        // Clamp into the current bucket: schedulers never travel backwards,
        // but an entry clamped forward still pops in correct `(time, seq)`
        // order because the bucket is sorted on the full key.
        let abs = Self::abs_bucket(entry.time).max(self.cursor);
        debug_assert!(abs < self.cursor + BUCKETS as u64);
        let slot = (abs as usize) & (BUCKETS - 1);
        let bucket = &mut self.ring[slot];
        if abs == self.cursor && self.sorted {
            // The live bucket is already sorted descending; splice the new
            // entry into position so the back stays the minimum.
            let key = entry.key();
            let pos = bucket.partition_point(|e| e.key() > key);
            bucket.insert(pos, entry);
        } else {
            bucket.push(entry);
        }
        self.ring_len += 1;
    }

    /// Pulls overflow entries that the advancing cursor has brought inside
    /// the horizon into the ring.
    fn refill(&mut self) {
        let horizon = self.cursor + BUCKETS as u64;
        while let Some(e) = self.overflow.peek() {
            if Self::abs_bucket(e.time) >= horizon {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            self.insert_ring(e);
        }
    }

    /// Advances the cursor to the next non-empty bucket and sorts it.
    /// Returns false when the queue is empty.
    fn settle(&mut self) -> bool {
        if self.ring_len == 0 {
            // Jump straight to the overflow's first bucket instead of
            // walking up to it one bucket at a time.
            match self.overflow.peek() {
                Some(e) => {
                    self.cursor = Self::abs_bucket(e.time);
                    self.sorted = false;
                    self.refill();
                }
                None => return false,
            }
        }
        loop {
            let slot = (self.cursor as usize) & (BUCKETS - 1);
            if !self.ring[slot].is_empty() {
                if !self.sorted {
                    self.ring[slot].sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                    self.sorted = true;
                }
                return true;
            }
            self.cursor += 1;
            self.sorted = false;
            self.refill();
        }
    }
}

impl<T> Scheduler<T> for CalendarQueue<T> {
    fn push(&mut self, time: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(time, seq, item);
    }

    fn push_keyed(&mut self, time: SimTime, seq: u64, item: T) {
        let entry = Entry { time, seq, item };
        if Self::abs_bucket(time) >= self.cursor + BUCKETS as u64 {
            self.overflow.push(entry);
        } else {
            self.insert_ring(entry);
        }
        let len = self.len();
        if len > self.high_water {
            self.high_water = len;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_keyed().map(|(time, _, item)| (time, item))
    }

    fn pop_keyed(&mut self) -> Option<(SimTime, u64, T)> {
        if !self.settle() {
            return None;
        }
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        let e = self.ring[slot].pop().expect("settled on non-empty bucket");
        self.ring_len -= 1;
        Some((e.time, e.seq, e.item))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        let slot = (self.cursor as usize) & (BUCKETS - 1);
        self.ring[slot].last().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn drain<S: Scheduler<u64>>(q: &mut S) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn orders_across_bucket_boundaries() {
        // Straddle several bucket widths, pushed out of order.
        let width = 1u64 << BUCKET_SHIFT;
        let times = [
            3 * width + 1,
            0,
            width - 1,
            width,
            2 * width + 7,
            1,
            width + 1,
        ];
        let mut q = CalendarQueue::default();
        for (i, &us) in times.iter().enumerate() {
            q.push(t(us), i as u64);
        }
        let popped = drain(&mut q);
        let mut expect: Vec<(SimTime, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &us)| (t(us), i as u64))
            .collect();
        expect.sort_by_key(|&(time, i)| (time, i));
        assert_eq!(popped, expect);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = CalendarQueue::default();
        for i in 0..1000u64 {
            q.push(t(42), i);
        }
        let ids: Vec<u64> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(ids, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn push_into_live_sorted_bucket_keeps_order() {
        // Pop once (forcing the bucket to sort), then push more entries at
        // the same and nearby times into the now-live bucket.
        let mut q = CalendarQueue::default();
        q.push(t(10), 0);
        q.push(t(30), 1);
        assert_eq!(q.pop(), Some((t(10), 0)));
        q.push(t(20), 2);
        q.push(t(30), 3);
        q.push(t(5), 4); // "past" push: clamped into the live bucket
        assert_eq!(
            drain(&mut q),
            vec![(t(5), 4), (t(20), 2), (t(30), 1), (t(30), 3)]
        );
    }

    #[test]
    fn far_future_spills_to_overflow_and_returns() {
        let horizon_us = (BUCKETS as u64) << BUCKET_SHIFT;
        let mut q = CalendarQueue::default();
        q.push(t(7), 0);
        q.push(t(3 * horizon_us + 5), 1); // ~400 simulated seconds out
        q.push(t(horizon_us + 9), 2);
        assert_eq!(q.len(), 3);
        assert_eq!(
            drain(&mut q),
            vec![
                (t(7), 0),
                (t(horizon_us + 9), 2),
                (t(3 * horizon_us + 5), 1)
            ]
        );
    }

    #[test]
    fn overflow_tie_break_survives_refill() {
        // Two far-future entries at the identical time must still come
        // back in push order after the spill/refill round trip.
        let far = ((BUCKETS as u64) << BUCKET_SHIFT) * 2 + 123;
        let mut q = CalendarQueue::default();
        for i in 0..100u64 {
            q.push(t(far), i);
        }
        q.push(t(1), 999);
        let ids: Vec<u64> = drain(&mut q).into_iter().map(|(_, i)| i).collect();
        assert_eq!(ids[0], 999);
        assert_eq!(ids[1..], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest_without_consuming() {
        let mut q = CalendarQueue::default();
        assert_eq!(q.peek_time(), None);
        q.push(t(50), 0);
        q.push(t(5), 1);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(5), 1)));
        assert_eq!(q.peek_time(), Some(t(50)));
    }

    #[test]
    fn interleaved_push_pop_tracks_len_and_high_water() {
        let mut q = CalendarQueue::default();
        q.push(t(1), 0);
        q.push(t(2), 1);
        q.push(t(3), 2);
        assert_eq!(q.pop(), Some((t(1), 0)));
        q.push(t(4), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.high_water(), 3);
        drain(&mut q);
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_pushes_pop_in_key_order_not_push_order() {
        // Same-time entries with explicit keys dequeue by ascending key,
        // regardless of push order — including pushes into a live (already
        // sorted) bucket and entries that round-trip through the overflow.
        let far = ((BUCKETS as u64) << BUCKET_SHIFT) * 2 + 9;
        let mut cal = CalendarQueue::default();
        let mut heap = HeapQueue::default();
        for q in [&mut cal as &mut dyn Scheduler<u64>, &mut heap] {
            q.push_keyed(t(40), 7, 0);
            q.push_keyed(t(40), 2, 1);
            q.push_keyed(t(10), 5, 2);
            q.push_keyed(t(far), 9, 3);
            q.push_keyed(t(far), 1, 4);
            assert_eq!(q.pop_keyed(), Some((t(10), 5, 2)));
            q.push_keyed(t(40), 4, 5); // into the live sorted bucket
            assert_eq!(q.pop_keyed(), Some((t(40), 2, 1)));
            assert_eq!(q.pop_keyed(), Some((t(40), 4, 5)));
            assert_eq!(q.pop_keyed(), Some((t(40), 7, 0)));
            assert_eq!(q.pop_keyed(), Some((t(far), 1, 4)));
            assert_eq!(q.pop_keyed(), Some((t(far), 9, 3)));
            assert_eq!(q.pop_keyed(), None);
        }
    }

    /// Property: for any random event set — including far-future outliers,
    /// duplicates and pops interleaved with pushes — the calendar queue
    /// dispatches in exactly the order of the reference heap.
    #[test]
    fn matches_heap_on_random_workloads() {
        let mut rng = StdRng::seed_from_u64(0xCA1E_17DA);
        for _case in 0..50 {
            let mut cal = CalendarQueue::default();
            let mut heap = HeapQueue::default();
            let mut id = 0u64;
            let mut now = 0u64;
            for _step in 0..rng.gen_range(10..400usize) {
                if rng.gen_bool(0.6) {
                    // Mostly near-future, occasionally way past the horizon.
                    let jitter = if rng.gen_bool(0.05) {
                        rng.gen_range(0..2_000_000_000u64)
                    } else {
                        rng.gen_range(0..5_000_000u64)
                    };
                    let burst = rng.gen_range(1..5u64);
                    for _ in 0..burst {
                        cal.push(t(now + jitter), id);
                        heap.push(t(now + jitter), id);
                        id += 1;
                    }
                } else {
                    assert_eq!(cal.peek_time(), heap.peek_time());
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(a, b);
                    if let Some((time, _)) = a {
                        now = time.as_micros();
                    }
                }
            }
            assert_eq!(drain(&mut cal), drain(&mut heap));
        }
    }
}
