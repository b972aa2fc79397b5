//! A bank-level hierarchical timing wheel: the incremental ready-set
//! index behind candidate enumeration (see DESIGN.md §7).
//!
//! Each *entry* (a `(rank, bank)` pair, plus one per-rank refresh
//! marker) carries an **earliest-actionable-cycle key**: a conservative
//! lower bound on the first cycle at which the entry could produce a
//! schedulable candidate (or, for rank markers, change refresh urgency /
//! service legality). The controller consults only entries whose key has
//! come due instead of re-walking every bank every busy cycle.
//!
//! ## Why lower bounds are safe
//!
//! Every DRAM timing gate in the device model is *monotone*: issuing a
//! command only pushes gates forward, never back. A key computed before
//! some other bank's issue can therefore only be **early**, never late —
//! the entry comes due, the (cheap) per-bank enumeration finds nothing
//! legal yet, and the entry is re-keyed from the now-current gates. The
//! only events that can make an entry actionable *earlier* than its key
//! are request arrival into its bank and refresh-window edges, and the
//! controller re-keys explicitly on exactly those events. Hence the
//! invariant the command-stream bit-identity proof rests on:
//!
//! > `key[e]` ≤ the true earliest cycle at which entry `e` can act.
//!
//! ## Structure
//!
//! A classic single-level calendar with an overflow heap, specialised
//! for a *small, dense, fixed* entry universe (a channel has at most a
//! few dozen banks), which makes every set a bitmap:
//!
//! * `keys` — the authoritative key per entry ([`PARKED`] = no bound,
//!   entry cannot act until an explicit re-key revives it);
//! * a [`WHEEL_BUCKETS`]-slot calendar whose buckets are **entry
//!   bitmaps** (`words` words each) holding entries with key within one
//!   rotation of the cursor, plus a bucket-occupancy bitmap so the next
//!   occupied slot is a few `trailing_zeros` away;
//! * a min-heap for keys beyond the calendar window;
//! * a persistent *ready* bitmap of entries whose key has come due.
//!
//! Calendar membership is **eagerly maintained**: re-keying clears the
//! entry's old bit and sets the new one, both O(1), so buckets never
//! hold stale state, advancing the cursor promotes whole buckets with a
//! word-OR into the ready bitmap, and ready iteration comes out in
//! ascending entry order for free (the order candidate enumeration
//! needs). Only heap slots are lazily deleted — a popped `(key, entry)`
//! pair is live iff `key == keys[entry]`. The cursor is advanced by the
//! controller at the top of every full tick.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Key sentinel: the entry has no actionable bound and stays out of the
/// calendar entirely until an explicit re-key (empty bank sub-queue, or
/// an idle bank suppressed by a pending refresh — revived by the
/// full-rank re-key after the `REF` issues).
pub(crate) const PARKED: u64 = u64::MAX;

/// Calendar slots (one simulated cycle each). Power of two so the
/// bucket of a key is a mask away. 256 covers every DRAM timing gate in
/// the model (the longest, tRFC, is ~88 cycles); only refresh-interval
/// scale keys (tREFI ≈ 6250) overflow to the heap.
const WHEEL_BUCKETS: usize = 256;

/// Words in the bucket-occupancy bitmap.
const OCC_WORDS: usize = WHEEL_BUCKETS / 64;

/// The wheel. Entry indices are dense and fixed at construction:
/// `0..banks` are `(rank, bank)` flattened keys, `banks..banks + ranks`
/// are per-rank refresh markers (the controller owns the mapping).
#[derive(Debug)]
pub(crate) struct BankWheel {
    /// Authoritative key per entry; the bitmaps index it.
    keys: Vec<u64>,
    /// Entry-bitmap words per bucket (and in `ready`):
    /// `ceil(entries / 64)`.
    words: usize,
    /// Calendar: bucket `k & (WHEEL_BUCKETS-1)` (an entry bitmap at
    /// `buckets[b * words ..][..words]`) holds entries with key `k` in
    /// `(cursor, cursor + WHEEL_BUCKETS]` — one key value per bucket
    /// within the window, so promoting a crossed bucket needs no key
    /// checks at all.
    buckets: Vec<u64>,
    /// Bit `b` set ⟺ bucket `b`'s bitmap is non-empty (exact, thanks to
    /// eager removal).
    occupied: [u64; OCC_WORDS],
    /// Keys beyond `cursor + WHEEL_BUCKETS`, lazily deleted.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    /// Bit `e` set ⟺ entry `e`'s *authoritative* key currently lives in
    /// the overflow heap (set on push, cleared when that slot is popped
    /// live or the entry is re-keyed away). Lets `rekey` tell a rotting
    /// heap slot from a calendar bit in O(1).
    heaped: Vec<u64>,
    /// Lower-bound count of heap slots whose `(key, entry)` no longer
    /// matches `keys` — left behind by re-keys and reclaimed on pop or
    /// by [`compact_overflow`](Self::compact_overflow). Kept as a
    /// saturating estimate (rare pop-order races can momentarily
    /// miscount by a bounded amount in either direction); it only
    /// steers *when* compaction runs, never correctness.
    stale: usize,
    /// The wheel's notion of "now". Entries with `key <= cursor` live in
    /// the ready bitmap, not the calendar.
    cursor: u64,
    /// Entries whose key has come due.
    ready: Vec<u64>,
    /// Lower bound on the minimum non-ready key: `advance_to` exits
    /// O(1) while the target cycle stays below it. 0 = unknown.
    soonest: u64,
    /// Overflow-heap rebuilds performed (diagnostic; compaction is rare
    /// and amortized, so an unconditional count costs nothing the hot
    /// path can feel).
    compactions: u64,
}

impl BankWheel {
    /// A wheel of `entries` parked entries with the cursor at cycle 0.
    pub(crate) fn new(entries: usize) -> Self {
        let words = entries.div_ceil(64).max(1);
        BankWheel {
            keys: vec![PARKED; entries],
            words,
            buckets: vec![0; WHEEL_BUCKETS * words],
            occupied: [0; OCC_WORDS],
            overflow: BinaryHeap::new(),
            heaped: vec![0; words],
            stale: 0,
            cursor: 0,
            ready: vec![0; words],
            soonest: 0,
            compactions: 0,
        }
    }

    /// Sets `entry`'s earliest-actionable key. Keys at or before the
    /// cursor join the ready set; [`PARKED`] drops the entry from the
    /// wheel; keys within one rotation land in the calendar, farther
    /// ones in the heap. The old key's calendar/ready bit is cleared
    /// eagerly; an old heap slot is left to rot (validated on pop).
    /// Returns whether the key actually moved (the same-key fast path
    /// reports `false`), so callers metering re-key traffic count only
    /// real movements.
    pub(crate) fn rekey(&mut self, entry: u32, key: u64) -> bool {
        let moved = self.rekey_one(entry, key);
        self.maybe_compact();
        moved
    }

    /// `entry`'s stored earliest-actionable key ([`PARKED`] when parked).
    pub(crate) fn key(&self, entry: u32) -> u64 {
        self.keys[entry as usize]
    }

    /// Rebuilds the overflow heap once rotting slots outnumber live
    /// ones. Rotting slots would otherwise accumulate without bound on
    /// refresh-heavy runs (every marker re-key beyond the calendar
    /// window leaves one behind); removing ≥ half the heap per rebuild
    /// makes the cost amortized O(1) per re-key, and the heap stays
    /// O(live entries).
    #[inline]
    fn maybe_compact(&mut self) {
        if self.stale * 2 > self.overflow.len() {
            self.compact_overflow();
        }
    }

    /// One entry's re-key, without the compaction check (which
    /// [`rekey`](Self::rekey) runs after it). Returns whether the key
    /// moved.
    #[inline]
    fn rekey_one(&mut self, entry: u32, key: u64) -> bool {
        let e = entry as usize;
        let old = self.keys[e];
        if old == key {
            return false;
        }
        if old <= self.cursor && key <= self.cursor {
            // Both due: the ready bit — the only state the wheel keeps
            // for a due entry (`collect_ready_into` reads the bitmap,
            // never the value) — is already set, so only the stored
            // value moves. This is the steady-state churn of an
            // offerable bank oscillating between its `now` pin and its
            // exact (passed) gate key; one store instead of two bitmap
            // round-trips.
            self.keys[e] = key;
            return false;
        }
        let (w, bit) = (e / 64, 1u64 << (e % 64));
        if self.heaped[w] & bit != 0 {
            // The authoritative slot sits in the heap; it stays behind
            // to rot (lazy deletion) and is reclaimed on pop or by the
            // next compaction.
            self.heaped[w] &= !bit;
            self.stale += 1;
        } else if old <= self.cursor {
            self.ready[w] &= !bit;
        } else if old != PARKED && old - self.cursor <= WHEEL_BUCKETS as u64 {
            // In the calendar window; clear its bit.
            let b = old as usize & (WHEEL_BUCKETS - 1);
            let idx = b * self.words + w;
            self.buckets[idx] &= !bit;
            if self.buckets[b * self.words..(b + 1) * self.words]
                .iter()
                .all(|&x| x == 0)
            {
                self.occupied[b / 64] &= !(1 << (b % 64));
            }
        }
        self.keys[e] = key;
        if key <= self.cursor {
            self.ready[w] |= bit;
        } else if key != PARKED {
            if key - self.cursor <= WHEEL_BUCKETS as u64 {
                let b = key as usize & (WHEEL_BUCKETS - 1);
                self.buckets[b * self.words + w] |= bit;
                self.occupied[b / 64] |= 1 << (b % 64);
            } else {
                self.overflow.push(Reverse((key, entry)));
                self.heaped[w] |= bit;
            }
            if key < self.soonest {
                self.soonest = key;
            }
        }
        true
    }

    /// Drops every rotting slot from the overflow heap. A slot is live
    /// iff its `(key, entry)` still matches the authoritative key; the
    /// survivors rebuild the heap in O(live).
    fn compact_overflow(&mut self) {
        self.compactions += 1;
        if self.overflow.is_empty() {
            self.stale = 0;
            return;
        }
        let keys = &self.keys;
        let mut slots = std::mem::take(&mut self.overflow).into_vec();
        slots.retain(|&Reverse((key, entry))| key == keys[entry as usize]);
        self.overflow = BinaryHeap::from(slots);
        self.stale = 0;
    }

    /// Promotes every entry in bucket `b` into the ready bitmap and
    /// empties the bucket.
    #[inline]
    fn promote_bucket(&mut self, b: usize) {
        for w in 0..self.words {
            self.ready[w] |= self.buckets[b * self.words + w];
            self.buckets[b * self.words + w] = 0;
        }
        self.occupied[b / 64] &= !(1 << (b % 64));
    }

    /// Moves the cursor to `now`, promoting every entry whose key has
    /// come due into the ready set. O(1) while `now` stays below the
    /// cached `soonest` bound; a short jump visits only the `jump`
    /// calendar slots it crosses (the steady-state case — a handful of
    /// bitmap probes); only a jump of a full rotation or more falls
    /// back to promoting every occupied bucket.
    pub(crate) fn advance_to(&mut self, now: u64) {
        if now <= self.cursor {
            return;
        }
        if now < self.soonest {
            self.cursor = now;
            return;
        }
        let old = self.cursor;
        self.cursor = now;
        if now - old < WHEEL_BUCKETS as u64 {
            // Every entry in a crossed bucket has key exactly equal to
            // the crossed cycle value (one value per residue within the
            // rotation window), so the whole bucket comes due.
            for v in (old + 1)..=now {
                let b = v as usize & (WHEEL_BUCKETS - 1);
                if self.occupied[b / 64] & (1 << (b % 64)) != 0 {
                    self.promote_bucket(b);
                }
            }
        } else {
            // Full-rotation jump: every calendar key (all within
            // `(old, old + WHEEL_BUCKETS]`) is due.
            for w in 0..OCC_WORDS {
                let mut bits = self.occupied[w];
                while bits != 0 {
                    let b = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.promote_bucket(b);
                }
            }
        }
        // Pull due heap entries (stale pairs evaporate here).
        while let Some(&Reverse((key, entry))) = self.overflow.peek() {
            if key != self.keys[entry as usize] {
                self.overflow.pop();
                self.stale = self.stale.saturating_sub(1);
            } else if key <= now {
                self.overflow.pop();
                let e = entry as usize;
                self.ready[e / 64] |= 1 << (e % 64);
                self.heaped[e / 64] &= !(1 << (e % 64));
            } else {
                break;
            }
        }
        self.soonest = 0; // recomputed lazily by the next peek
    }

    /// Appends the ready entries to `out` in **ascending entry order**
    /// (the flat `(rank, bank)` order candidate enumeration requires).
    /// Entries stay ready until re-keyed — the caller re-keys every
    /// entry it acts on (or proves inert) each full tick.
    pub(crate) fn collect_ready_into(&self, out: &mut Vec<u32>) {
        for w in 0..self.words {
            let mut bits = self.ready[w];
            while bits != 0 {
                out.push((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// True if any entry's key has come due.
    pub(crate) fn has_ready(&self) -> bool {
        self.ready.iter().any(|&w| w != 0)
    }

    /// Minimum key among not-yet-due entries ([`PARKED`] when none),
    /// cleaning stale heap slots as a side effect and refreshing the
    /// `soonest` bound. Ready entries are *not* considered — callers
    /// check [`has_ready`](Self::has_ready) first.
    pub(crate) fn peek_future(&mut self) -> u64 {
        // Calendar: walk the occupancy bitmap circularly from the
        // cursor; occupancy is exact, keys within the window are in
        // circular bucket order, so the first occupied bucket holds the
        // minimum and its key falls straight out of the bucket's
        // circular distance from the cursor.
        let mut best = PARKED;
        let start = (self.cursor as usize + 1) & (WHEEL_BUCKETS - 1);
        let sw = start / 64;
        'scan: for i in 0..=OCC_WORDS {
            let w = (sw + i) % OCC_WORDS;
            let mut bits = self.occupied[w];
            if i == 0 {
                bits &= !0u64 << (start % 64);
            } else if i == OCC_WORDS {
                bits &= !(!0u64 << (start % 64));
            }
            if bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                let delta = (b.wrapping_sub(start)) & (WHEEL_BUCKETS - 1);
                best = self.cursor + 1 + delta as u64;
                break 'scan;
            }
        }
        // Heap: pop stale tops, then the top is the heap's minimum.
        while let Some(&Reverse((key, entry))) = self.overflow.peek() {
            if key == self.keys[entry as usize] {
                best = best.min(key);
                break;
            }
            self.overflow.pop();
            self.stale = self.stale.saturating_sub(1);
        }
        self.soonest = best;
        best
    }

    /// Slots currently in the overflow heap, live and rotting alike
    /// (diagnostic: the compaction regression test bounds this against
    /// the entry count).
    pub(crate) fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// Current estimate of rotting overflow-heap slots (the count that
    /// steers compaction).
    pub(crate) fn stale_estimate(&self) -> usize {
        self.stale
    }

    /// Entries with a live (non-[`PARKED`]) key.
    pub(crate) fn live_entries(&self) -> usize {
        self.keys.iter().filter(|&&k| k != PARKED).count()
    }

    /// Overflow-heap compactions performed so far.
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_of(w: &mut BankWheel) -> Vec<u32> {
        let mut v = Vec::new();
        w.collect_ready_into(&mut v);
        v.sort_unstable();
        v
    }

    #[test]
    fn rekey_and_advance_promote_due_entries() {
        let mut w = BankWheel::new(4);
        w.rekey(0, 10);
        w.rekey(1, 300); // overflow
        w.rekey(2, 5);
        assert!(!w.has_ready());
        assert_eq!(w.peek_future(), 5);
        w.advance_to(5);
        assert_eq!(ready_of(&mut w), vec![2]);
        assert_eq!(w.peek_future(), 10);
        w.advance_to(12);
        assert_eq!(ready_of(&mut w), vec![0, 2]);
        assert_eq!(w.peek_future(), 300);
        w.advance_to(1000);
        assert_eq!(ready_of(&mut w), vec![0, 1, 2]);
        assert_eq!(w.peek_future(), PARKED);
    }

    #[test]
    fn rekey_moves_entries_both_directions() {
        let mut w = BankWheel::new(2);
        w.advance_to(100);
        w.rekey(0, 150);
        // Pull back to due: goes straight to ready.
        w.rekey(0, 90);
        assert_eq!(ready_of(&mut w), vec![0]);
        // Push a ready entry back out: leaves the ready set.
        w.rekey(0, 180);
        assert!(!w.has_ready());
        assert_eq!(w.peek_future(), 180);
        // The old 150-cycle slot must not resurrect it.
        w.advance_to(160);
        assert!(!w.has_ready());
        w.advance_to(180);
        assert_eq!(ready_of(&mut w), vec![0]);
    }

    #[test]
    fn parked_entries_never_surface() {
        let mut w = BankWheel::new(3);
        w.rekey(1, 40);
        w.rekey(1, PARKED);
        w.advance_to(500);
        assert!(!w.has_ready());
        assert_eq!(w.peek_future(), PARKED);
        // Reviving a parked entry works at any cursor.
        w.rekey(1, 400);
        assert_eq!(ready_of(&mut w), vec![1]);
    }

    #[test]
    fn ready_set_is_persistent_until_rekeyed() {
        let mut w = BankWheel::new(2);
        w.rekey(0, 3);
        w.advance_to(10);
        assert_eq!(ready_of(&mut w), vec![0]);
        // Still ready on the next collection — no implicit consumption.
        assert_eq!(ready_of(&mut w), vec![0]);
        w.rekey(0, 20);
        assert!(!w.has_ready());
    }

    #[test]
    fn long_jumps_cross_many_rotations() {
        let mut w = BankWheel::new(3);
        w.rekey(0, 100);
        w.rekey(1, 10_000);
        w.rekey(2, 1_000_000);
        w.advance_to(999_999);
        assert_eq!(ready_of(&mut w), vec![0, 1]);
        assert_eq!(w.peek_future(), 1_000_000);
        w.advance_to(1_000_000);
        assert_eq!(ready_of(&mut w), vec![0, 1, 2]);
    }

    #[test]
    fn same_bucket_different_rotation_stays_future() {
        let mut w = BankWheel::new(2);
        // Keys 10 and 10 + 256 share bucket 10; the far one must sit in
        // the heap, not alias into the near rotation.
        w.rekey(0, 10);
        w.rekey(1, 10 + WHEEL_BUCKETS as u64);
        w.advance_to(10);
        assert_eq!(ready_of(&mut w), vec![0]);
        assert_eq!(w.peek_future(), 10 + WHEEL_BUCKETS as u64);
        w.advance_to(10 + WHEEL_BUCKETS as u64);
        assert_eq!(ready_of(&mut w), vec![0, 1]);
    }

    #[test]
    fn soonest_bound_fast_path_misses_nothing() {
        let mut w = BankWheel::new(2);
        w.rekey(0, 50);
        assert_eq!(w.peek_future(), 50); // caches soonest = 50
        w.advance_to(10); // below the bound: O(1) path
        w.advance_to(49);
        assert!(!w.has_ready());
        // Re-key below the cached bound, then advance into it.
        w.rekey(1, 30);
        w.advance_to(30);
        assert_eq!(ready_of(&mut w), vec![1]);
        w.advance_to(50);
        assert_eq!(ready_of(&mut w), vec![0, 1]);
    }

    #[test]
    fn rekey_same_key_is_a_noop() {
        let mut w = BankWheel::new(1);
        w.rekey(0, 75);
        w.rekey(0, 75);
        w.advance_to(75);
        let mut v = Vec::new();
        w.collect_ready_into(&mut v);
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn overflow_heap_stays_bounded_under_rekey_churn() {
        // Re-keying entries between far-future keys forever (the
        // refresh-marker pattern: every derivation lands ~tREFI ahead,
        // beyond the calendar window) must not grow the heap without
        // bound: compaction keeps it O(live entries).
        let n = 10u32;
        let mut w = BankWheel::new(n as usize);
        for round in 0u64..10_000 {
            let e = (round % n as u64) as u32;
            w.rekey(e, 100_000 + round * 7 + e as u64);
            assert!(
                w.overflow_len() <= 2 * n as usize + 1,
                "round {round}: heap grew to {}",
                w.overflow_len()
            );
        }
        // Every entry still surfaces at its final (latest) key.
        w.advance_to(1_000_000);
        assert_eq!(ready_of(&mut w), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_preserves_behaviour_across_advances() {
        let mut w = BankWheel::new(3);
        // Churn entry 0 hard to force several compactions while 1 and 2
        // hold stable far keys that must survive every rebuild.
        w.rekey(1, 5_000);
        w.rekey(2, 9_000);
        for i in 0..1_000u64 {
            w.rekey(0, 10_000 + i);
        }
        assert_eq!(w.peek_future(), 5_000);
        w.advance_to(5_000);
        assert_eq!(ready_of(&mut w), vec![1]);
        w.advance_to(9_000);
        assert_eq!(ready_of(&mut w), vec![1, 2]);
        assert_eq!(w.peek_future(), 10_999);
        w.advance_to(10_999);
        assert_eq!(ready_of(&mut w), vec![0, 1, 2]);
    }

    #[test]
    fn health_accessors_track_internal_accounting() {
        let mut w = BankWheel::new(4);
        assert_eq!(w.live_entries(), 0);
        w.rekey(0, 10);
        w.rekey(1, 5_000);
        assert_eq!(w.live_entries(), 2);
        assert_eq!(w.compactions(), 0);
        // Far-key churn leaves rotting heap slots; compaction must fire
        // and the stale estimate must respect its own trigger invariant.
        for i in 1..1_000u64 {
            w.rekey(1, 5_000 + i);
            assert!(w.stale_estimate() * 2 <= w.overflow_len());
        }
        assert!(w.compactions() > 0);
        w.rekey(1, PARKED);
        assert_eq!(w.live_entries(), 1);
    }

    #[test]
    fn heap_slot_left_by_rekey_away_never_promotes_early() {
        let mut w = BankWheel::new(2);
        // Entry 0 goes far (heap), then is re-keyed nearer: the stale
        // heap pair must not surface it at its old key.
        w.rekey(0, 2_000);
        w.rekey(0, 5_000);
        w.advance_to(2_000);
        assert!(!w.has_ready());
        assert_eq!(w.peek_future(), 5_000);
        w.advance_to(5_000);
        assert_eq!(ready_of(&mut w), vec![0]);
    }
}
