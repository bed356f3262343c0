//! Set-associative cache arrays with pluggable replacement.

use crate::policy::{PolicyKind, PolicyState, ReplacementPolicy};

/// A line displaced by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Block address of the victim.
    pub block: u64,
    /// Whether the victim was dirty (needs writing back).
    pub dirty: bool,
    /// Whether the victim was ever re-referenced after its fill — dead-
    /// on-arrival blocks (never reused) are what bypass predictors hunt.
    pub reused: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was present.
    pub hit: bool,
    /// The displaced victim, if an allocation evicted one.
    pub evicted: Option<Eviction>,
}

impl AccessOutcome {
    /// The dirty victim's block address, if the eviction requires a
    /// writeback.
    pub fn writeback(&self) -> Option<u64> {
        self.evicted.filter(|e| e.dirty).map(|e| e.block)
    }
}

/// One cache line's replacement-relevant state, readable by
/// [`ReplacementPolicy::victim`] implementations (the tag stays
/// private — policies decide *which way* dies, not address identity).
#[derive(Debug, Clone, Copy, Default)]
pub struct Line {
    pub(crate) tag: u64,
    /// Whether the line holds a block.
    pub valid: bool,
    /// Whether the block has been written since its fill (a dirty
    /// victim costs a writeback — what the endurance policy avoids).
    pub dirty: bool,
    /// Whether the block was re-referenced after its fill.
    pub reused: bool,
    /// Recency stamp (the array's access clock at the last touch).
    pub stamp: u64,
}

/// A write-back, write-allocate set-associative cache over 64 B block
/// addresses.
///
/// Purely functional state (no timing): the timing model lives in
/// [`crate::system`]. Addresses are *block* addresses (byte address / 64).
///
/// The line array is a single flat allocation (`num_sets × ways`, set-
/// major): one access touches one contiguous `ways`-sized slice, and the
/// set index/tag split is a precomputed mask and shift — the simulator
/// replays hundreds of millions of accesses, so the per-access `Vec`
/// indirection this replaces was a measurable cost.
///
/// # Examples
///
/// ```
/// use nvm_llc_sim::{PolicyKind, SetAssocCache};
///
/// let mut l1 = SetAssocCache::new(64, 2, PolicyKind::Lru);
/// assert!(!l1.access(0x10, false).hit); // cold miss
/// assert!(l1.access(0x10, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// Flat set-major line array: set `s` occupies
    /// `lines[s * ways .. (s + 1) * ways]`.
    lines: Vec<Line>,
    ways: usize,
    set_mask: u64,
    /// `log2(num_sets)`: the tag is the block address shifted right by
    /// this (equivalent to dividing by the set count).
    set_shift: u32,
    /// Replacement state, dispatched through
    /// [`crate::policy::ReplacementPolicy`]. Recency stamps stay on the
    /// lines themselves (LRU's fast path, and the age source for the
    /// endurance policy) — the policy owns everything else.
    policy: PolicyState,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache with `num_sets` sets of `ways` lines.
    ///
    /// # Panics
    ///
    /// Panics unless `num_sets` is a power of two and `ways ≥ 1` —
    /// configurations come from validated [`crate::config`] values.
    pub fn new(num_sets: u64, ways: u32, replacement: PolicyKind) -> Self {
        assert!(num_sets.is_power_of_two(), "sets must be a power of two");
        assert!(ways >= 1, "needs at least one way");
        SetAssocCache {
            lines: vec![Line::default(); (num_sets * u64::from(ways)) as usize],
            ways: ways as usize,
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
            policy: PolicyState::new(replacement, num_sets, ways as usize),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The replacement policy this array dispatches through.
    pub fn replacement(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// Builds a cache from a capacity/associativity/block geometry.
    pub fn with_geometry(
        capacity_bytes: u64,
        associativity: u32,
        block_bytes: u32,
        replacement: PolicyKind,
    ) -> Self {
        let sets = (capacity_bytes / (u64::from(block_bytes) * u64::from(associativity))).max(1);
        Self::new(sets.next_power_of_two(), associativity, replacement)
    }

    /// The set `block` maps to: the low `log2(num_sets)` block-address
    /// bits, identical to `block % num_sets` (introspection for tests and
    /// debugging — the hot path inlines the same mask).
    pub fn set_index(&self, block: u64) -> u64 {
        block & self.set_mask
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.set_mask + 1
    }

    /// Associativity (lines per set).
    pub fn ways(&self) -> u32 {
        self.ways as u32
    }

    /// Accesses `block`; on a miss the block is allocated
    /// (write-allocate), possibly evicting a victim. `is_write` marks the
    /// line dirty.
    pub fn access(&mut self, block: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let set_idx = (block & self.set_mask) as usize;
        let tag = block >> self.set_shift;
        let clock = self.clock;
        let base = set_idx * self.ways;
        let set = &mut self.lines[base..base + self.ways];

        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            let line = &mut set[way];
            line.stamp = clock;
            line.dirty |= is_write;
            line.reused = true;
            self.hits += 1;
            self.policy.touch(set_idx, way);
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.misses += 1;

        // Victim: first invalid way (policy unconsulted), else the
        // policy picks among a full set.
        let victim_idx = match set.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => self.policy.victim(set_idx, set),
        };
        let victim = set[victim_idx];
        let evicted = victim.valid.then(|| {
            self.policy.evict(set_idx, victim_idx);
            Eviction {
                block: (victim.tag << self.set_shift) | set_idx as u64,
                dirty: victim.dirty,
                reused: victim.reused,
            }
        });
        set[victim_idx] = Line {
            tag,
            valid: true,
            dirty: is_write,
            reused: false,
            stamp: clock,
        };
        self.policy.fill(set_idx, victim_idx, block);
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Accesses `block` without allocating on a miss — the bypass path:
    /// hits update recency and count normally; misses count but leave the
    /// set untouched.
    pub fn access_no_alloc(&mut self, block: u64) -> bool {
        self.clock += 1;
        let set_idx = (block & self.set_mask) as usize;
        let tag = block >> self.set_shift;
        let clock = self.clock;
        let base = set_idx * self.ways;
        let set = &mut self.lines[base..base + self.ways];
        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            let line = &mut set[way];
            line.stamp = clock;
            line.reused = true;
            self.hits += 1;
            self.policy.touch(set_idx, way);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Allocates `block` dirty *without* counting an access — used to sink
    /// writebacks arriving from an upper level (their timing and energy
    /// are charged by the caller).
    ///
    /// Returns an evicted dirty block, if any.
    pub fn fill_dirty(&mut self, block: u64) -> Option<u64> {
        self.fill_dirty_full(block)
            .filter(|e| e.dirty)
            .map(|e| e.block)
    }

    /// Like [`SetAssocCache::fill_dirty`] but returns the full eviction
    /// record (clean victims included) — inclusive hierarchies must
    /// back-invalidate those too.
    pub fn fill_dirty_full(&mut self, block: u64) -> Option<Eviction> {
        let outcome = self.access(block, true);
        // Writebacks are not demand traffic; undo the stat increments.
        if outcome.hit {
            self.hits -= 1;
        } else {
            self.misses -= 1;
        }
        outcome.evicted
    }

    /// Allocates `block` clean without counting demand stats — the
    /// prefetch path. Returns the full eviction record so the caller can
    /// cascade dirty victims.
    pub fn fill_clean(&mut self, block: u64) -> Option<Eviction> {
        let outcome = self.access(block, false);
        if outcome.hit {
            self.hits -= 1;
        } else {
            self.misses -= 1;
        }
        outcome.evicted
    }

    /// Invalidates `block` if resident; returns whether the dropped line
    /// was dirty. Used for inclusive-hierarchy back-invalidation.
    pub fn invalidate(&mut self, block: u64) -> Option<bool> {
        let set_idx = (block & self.set_mask) as usize;
        let tag = block >> self.set_shift;
        let base = set_idx * self.ways;
        let line = self.lines[base..base + self.ways]
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)?;
        line.valid = false;
        Some(line.dirty)
    }

    /// All currently resident block addresses, set-major.
    ///
    /// Allocation-free: yields straight from the line array, so endurance
    /// and hybrid analyses can sweep residency without materializing a
    /// `Vec` per call (collect if ordering/sorting is needed).
    pub fn resident_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.lines
            .chunks(self.ways)
            .enumerate()
            .flat_map(move |(set_idx, set)| {
                set.iter()
                    .filter(|l| l.valid)
                    .map(move |l| (l.tag << self.set_shift) | set_idx as u64)
            })
    }

    /// Whether `block` is currently resident (no state change).
    pub fn contains(&self, block: u64) -> bool {
        let set_idx = (block & self.set_mask) as usize;
        let tag = block >> self.set_shift;
        let base = set_idx * self.ways;
        self.lines[base..base + self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Demand accesses so far.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio over demand accesses (0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(16, 2, PolicyKind::Lru);
        assert!(!c.access(5, false).hit);
        assert!(c.access(5, false).hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: blocks map to same set when set bits equal.
        let mut c = SetAssocCache::new(1, 2, PolicyKind::Lru);
        c.access(1, false);
        c.access(2, false);
        c.access(1, false); // 2 is now LRU
        c.access(3, false); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = SetAssocCache::new(1, 1, PolicyKind::Lru);
        assert_eq!(c.access(7, true).writeback(), None);
        let out = c.access(9, false);
        assert!(!out.hit);
        assert_eq!(out.writeback(), Some(7));
        // Block 7 was never re-referenced after its fill.
        assert!(!out.evicted.unwrap().reused);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = SetAssocCache::new(1, 1, PolicyKind::Lru);
        c.access(7, false);
        assert_eq!(c.access(9, false).writeback(), None);
    }

    #[test]
    fn write_then_read_keeps_dirty_until_evicted() {
        let mut c = SetAssocCache::new(1, 1, PolicyKind::Lru);
        c.access(7, true);
        c.access(7, false); // read does not clean it
        let out = c.access(9, false);
        assert_eq!(out.writeback(), Some(7));
        // And this victim *was* reused before eviction.
        assert!(out.evicted.unwrap().reused);
    }

    #[test]
    fn fill_dirty_does_not_perturb_demand_stats() {
        let mut c = SetAssocCache::new(16, 2, PolicyKind::Lru);
        c.access(1, false);
        let (h, m) = (c.hits(), c.misses());
        let wb = c.fill_dirty(33);
        assert_eq!(wb, None);
        assert_eq!((c.hits(), c.misses()), (h, m));
        assert!(c.contains(33));
    }

    #[test]
    fn set_index_uses_low_block_bits() {
        let mut c = SetAssocCache::new(16, 1, PolicyKind::Lru);
        c.access(0, false);
        c.access(16, false); // same set (block % 16 == 0), evicts 0
        assert!(!c.contains(0));
        assert!(c.contains(16));
        assert!(c.access(3, false).writeback().is_none()); // different set
    }

    #[test]
    fn random_policy_eventually_evicts_everything() {
        let mut c = SetAssocCache::new(1, 4, PolicyKind::Random);
        for b in 0..4 {
            c.access(b, false);
        }
        for b in 100..200 {
            c.access(b, false);
        }
        // All original lines must be gone after 100 conflicting fills.
        for b in 0..4 {
            assert!(!c.contains(b), "block {b} survived");
        }
    }

    #[test]
    fn geometry_constructor_matches_table_4_l1() {
        let c = SetAssocCache::with_geometry(32 * 1024, 8, 64, PolicyKind::Lru);
        // 32 KB / (64 B × 8) = 64 sets.
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let _ = SetAssocCache::new(3, 2, PolicyKind::Lru);
    }

    #[test]
    fn invalidate_drops_lines_and_reports_dirtiness() {
        let mut c = SetAssocCache::new(4, 2, PolicyKind::Lru);
        c.access(1, true);
        c.access(2, false);
        assert_eq!(c.invalidate(1), Some(true));
        assert_eq!(c.invalidate(2), Some(false));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(1));
        assert_eq!(c.resident_blocks().next(), None);
    }

    #[test]
    fn resident_blocks_reconstruct_addresses() {
        let mut c = SetAssocCache::new(8, 2, PolicyKind::Lru);
        for b in [3u64, 11, 100] {
            c.access(b, false);
        }
        let mut resident: Vec<u64> = c.resident_blocks().collect();
        resident.sort_unstable();
        assert_eq!(resident, vec![3, 11, 100]);
    }

    #[test]
    fn capacity_working_set_fits_exactly() {
        // A working set equal to capacity must fully hit after warmup.
        let mut c = SetAssocCache::new(8, 2, PolicyKind::Lru);
        for round in 0..3 {
            for b in 0..16u64 {
                let hit = c.access(b, false).hit;
                if round > 0 {
                    assert!(hit, "round {round} block {b}");
                }
            }
        }
    }

    #[test]
    fn lru_eviction_order_is_strictly_by_recency() {
        // Scripted regression for the flat-array refactor: in a single
        // 4-way set, fills must evict exactly in least-recently-used order,
        // and a touch must rescue a line from its eviction slot.
        let mut c = SetAssocCache::new(1, 4, PolicyKind::Lru);
        for b in [10u64, 20, 30, 40] {
            c.access(b, false);
        }
        c.access(10, false); // touch: LRU order is now 20, 30, 40, 10
        let evicted: Vec<u64> = [50u64, 60, 70, 80]
            .into_iter()
            .map(|b| {
                c.access(b, false)
                    .evicted
                    .expect("full set must evict")
                    .block
            })
            .collect();
        assert_eq!(evicted, vec![20, 30, 40, 10]);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Table III-shaped geometries: LLC sweeps cover 1–64 MB at 8/16
        /// ways with 64 B blocks, i.e. sets from 2^6 up to 2^15 here.
        const WAYS: [u32; 5] = [1, 2, 4, 8, 16];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The shift/mask decomposition must agree with the original
            /// modulo/divide arithmetic for every block address.
            #[test]
            fn shift_mask_matches_modulo_arithmetic(
                log_sets in 6u32..16,
                way_idx in 0usize..WAYS.len(),
                block in 0u64..(1u64 << 40),
            ) {
                let (num_sets, ways) = (1u64 << log_sets, WAYS[way_idx]);
                let c = SetAssocCache::new(num_sets, ways, PolicyKind::Lru);
                let set = c.set_index(block);
                let tag = block >> c.set_shift;
                prop_assert_eq!(set, block % num_sets);
                prop_assert_eq!(tag, block / num_sets);
                // Address reconstruction (used by eviction reporting) must
                // round-trip through the (tag, set) split.
                prop_assert_eq!((tag << c.set_shift) | set, block);
            }

            /// Miss/hit accounting is invariant across geometries: re-running
            /// the same block stream yields identical counters and residency.
            #[test]
            fn access_stream_is_deterministic(
                log_sets in 6u32..16,
                way_idx in 0usize..WAYS.len(),
                blocks in proptest::collection::vec(0u64..10_000, 1..200),
            ) {
                let (num_sets, ways) = (1u64 << log_sets, WAYS[way_idx]);
                let mut a = SetAssocCache::new(num_sets, ways, PolicyKind::Lru);
                let mut b = SetAssocCache::new(num_sets, ways, PolicyKind::Lru);
                for &blk in &blocks {
                    let ra = a.access(blk, blk % 3 == 0);
                    let rb = b.access(blk, blk % 3 == 0);
                    prop_assert_eq!(ra.hit, rb.hit);
                    prop_assert_eq!(ra.evicted, rb.evicted);
                }
                prop_assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()));
                let (mut ra, mut rb): (Vec<u64>, Vec<u64>) =
                    (a.resident_blocks().collect(), b.resident_blocks().collect());
                ra.sort_unstable();
                rb.sort_unstable();
                prop_assert_eq!(ra, rb);
            }
        }
    }
}
