//! The bank-level ready-set index behind candidate enumeration (see
//! DESIGN.md §7).
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
//! One flat table, `keys`, indexed by entry ([`PARKED`] = no bound, the
//! entry cannot act until an explicit re-key revives it). A re-key is
//! one store. The two queries are linear scans: the entries due at a
//! cycle come out in ascending entry order (the flat `(rank, bank)`
//! order candidate enumeration needs), and the smallest key ends the
//! next quiet span. The entry universe is small and fixed — the paper's
//! channel (one rank of 8 banks) has 9 entries — so a scan of a few
//! cache lines costs no more than keeping a calendar in order, and the
//! table is the only structure a change to key derivation has to
//! respect. The scans grow linearly with ranks × banks; DESIGN.md §7
//! has the measured cost.

/// Key sentinel: the entry has no actionable bound and is never due
/// until an explicit re-key (empty bank sub-queue, or an idle bank
/// suppressed by a pending refresh — revived by the full-rank re-key
/// after the `REF` issues).
pub(crate) const PARKED: u64 = u64::MAX;

/// The key table. Entry indices are dense and fixed at construction:
/// `0..banks` are `(rank, bank)` flattened keys, `banks..banks + ranks`
/// are per-rank refresh markers (the controller owns the mapping).
#[derive(Debug)]
pub(crate) struct BankWheel {
    /// Earliest-actionable key per entry.
    keys: Vec<u64>,
}

impl BankWheel {
    /// A table of `entries` parked entries.
    pub(crate) fn new(entries: usize) -> Self {
        BankWheel {
            keys: vec![PARKED; entries],
        }
    }

    /// Sets `entry`'s earliest-actionable key. Returns whether the key
    /// changed, so callers metering re-key traffic count only real
    /// movements.
    pub(crate) fn rekey(&mut self, entry: u32, key: u64) -> bool {
        std::mem::replace(&mut self.keys[entry as usize], key) != key
    }

    /// `entry`'s stored earliest-actionable key ([`PARKED`] when parked).
    pub(crate) fn key(&self, entry: u32) -> u64 {
        self.keys[entry as usize]
    }

    /// Appends every entry whose key is at or before `now` to `out`, in
    /// **ascending entry order**. Entries stay due until re-keyed — the
    /// caller re-keys every entry it acts on (or proves inert) each full
    /// tick.
    pub(crate) fn collect_due_into(&self, now: u64, out: &mut Vec<u32>) {
        for (e, &k) in self.keys.iter().enumerate() {
            if k <= now {
                out.push(e as u32);
            }
        }
    }

    /// The smallest key ([`PARKED`] when every entry is parked).
    pub(crate) fn min_key(&self) -> u64 {
        self.keys.iter().copied().min().unwrap_or(PARKED)
    }

    /// Entries with a live (non-[`PARKED`]) key.
    pub(crate) fn live_entries(&self) -> usize {
        self.keys.iter().filter(|&&k| k != PARKED).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn due_at(w: &BankWheel, now: u64) -> Vec<u32> {
        let mut v = Vec::new();
        w.collect_due_into(now, &mut v);
        v
    }

    #[test]
    fn rekey_and_advance_promote_due_entries() {
        let mut w = BankWheel::new(4);
        w.rekey(0, 10);
        w.rekey(1, 300);
        w.rekey(2, 5);
        assert_eq!(due_at(&w, 4), Vec::<u32>::new());
        assert_eq!(w.min_key(), 5);
        assert_eq!(due_at(&w, 5), vec![2]);
        assert_eq!(due_at(&w, 12), vec![0, 2]);
        assert_eq!(due_at(&w, 1000), vec![0, 1, 2]);
        // Keys are lower bounds: the smallest one stays the minimum
        // however far the clock has moved past it.
        assert_eq!(w.min_key(), 5);
    }

    #[test]
    fn rekey_moves_entries_both_directions() {
        let mut w = BankWheel::new(2);
        w.rekey(0, 150);
        // Pull back to due.
        w.rekey(0, 90);
        assert_eq!(due_at(&w, 100), vec![0]);
        // Push a due entry back out: no longer due.
        w.rekey(0, 180);
        assert_eq!(due_at(&w, 100), Vec::<u32>::new());
        assert_eq!(w.min_key(), 180);
        // The superseded 150-cycle key must not surface it early.
        assert_eq!(due_at(&w, 160), Vec::<u32>::new());
        assert_eq!(due_at(&w, 180), vec![0]);
    }

    #[test]
    fn parked_entries_never_surface() {
        let mut w = BankWheel::new(3);
        w.rekey(1, 40);
        w.rekey(1, PARKED);
        assert_eq!(due_at(&w, u64::MAX - 1), Vec::<u32>::new());
        assert_eq!(w.min_key(), PARKED);
        // Reviving a parked entry works at any clock.
        w.rekey(1, 400);
        assert_eq!(due_at(&w, 500), vec![1]);
    }

    #[test]
    fn ready_set_is_persistent_until_rekeyed() {
        let mut w = BankWheel::new(2);
        w.rekey(0, 3);
        assert_eq!(due_at(&w, 10), vec![0]);
        // Still due on the next scan — no implicit consumption.
        assert_eq!(due_at(&w, 10), vec![0]);
        w.rekey(0, 20);
        assert_eq!(due_at(&w, 10), Vec::<u32>::new());
    }

    #[test]
    fn long_jumps_cross_many_rotations() {
        // Far keys (refresh-interval scale and beyond) come due at their
        // own cycle, however long the jump that reaches it.
        let mut w = BankWheel::new(3);
        w.rekey(0, 100);
        w.rekey(1, 10_000);
        w.rekey(2, 1_000_000);
        assert_eq!(due_at(&w, 999_999), vec![0, 1]);
        // Once the due entries are parked, the skip bound is the far key.
        w.rekey(0, PARKED);
        w.rekey(1, PARKED);
        assert_eq!(w.min_key(), 1_000_000);
        assert_eq!(due_at(&w, 1_000_000), vec![2]);
    }

    #[test]
    fn soonest_bound_fast_path_misses_nothing() {
        // Quiet spans are skipped to `min_key`, so it must follow every
        // re-key at once: a key set below the current minimum lowers it.
        let mut w = BankWheel::new(2);
        w.rekey(0, 50);
        assert_eq!(w.min_key(), 50);
        assert_eq!(due_at(&w, 49), Vec::<u32>::new());
        w.rekey(1, 30);
        assert_eq!(w.min_key(), 30);
        assert_eq!(due_at(&w, 30), vec![1]);
        assert_eq!(due_at(&w, 50), vec![0, 1]);
        // Raising the minimum entry hands the bound to the next one.
        w.rekey(1, 70);
        assert_eq!(w.min_key(), 50);
    }

    #[test]
    fn min_key_sees_every_entry() {
        // The smallest key may sit at any index, the last one (a rank's
        // refresh marker) included.
        let n = 9;
        for at in 0..n {
            let mut w = BankWheel::new(n as usize);
            for e in 0..n {
                w.rekey(e, 1_000 + u64::from(e));
            }
            w.rekey(at, 7);
            assert_eq!(w.min_key(), 7, "minimum at entry {at}");
            assert_eq!(due_at(&w, 7), vec![at]);
        }
    }

    #[test]
    fn rekey_same_key_is_a_noop() {
        let mut w = BankWheel::new(1);
        assert!(w.rekey(0, 75));
        assert!(!w.rekey(0, 75));
        assert_eq!(due_at(&w, 75), vec![0]);
    }

    #[test]
    fn far_key_churn_keeps_only_the_latest_keys() {
        // The refresh-marker pattern: entries re-keyed far ahead over
        // and over. Only each entry's latest key counts.
        let n = 10u32;
        let mut w = BankWheel::new(n as usize);
        for round in 0u64..10_000 {
            let e = (round % u64::from(n)) as u32;
            w.rekey(e, 100_000 + round * 7 + u64::from(e));
        }
        assert_eq!(w.min_key(), 100_000 + 9_990 * 7);
        assert_eq!(due_at(&w, 1_000_000), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn health_accessors_track_internal_accounting() {
        // `live_entries` feeds the `WheelLive` gauge: the count of
        // non-parked keys through any mix of re-keys.
        let mut w = BankWheel::new(4);
        assert_eq!(w.live_entries(), 0);
        w.rekey(0, 10);
        w.rekey(1, 5_000);
        assert_eq!(w.live_entries(), 2);
        for i in 1..1_000u64 {
            w.rekey(1, 5_000 + i);
        }
        assert_eq!(w.live_entries(), 2);
        w.rekey(1, PARKED);
        assert_eq!(w.live_entries(), 1);
        w.rekey(1, PARKED);
        assert_eq!(w.live_entries(), 1);
    }

    #[test]
    fn heap_slot_left_by_rekey_away_never_promotes_early() {
        // Entry 0 goes far, then is re-keyed further still: its old key
        // must not surface it.
        let mut w = BankWheel::new(2);
        w.rekey(0, 2_000);
        w.rekey(0, 5_000);
        assert_eq!(due_at(&w, 2_000), Vec::<u32>::new());
        assert_eq!(w.min_key(), 5_000);
        assert_eq!(due_at(&w, 5_000), vec![0]);
    }
}
