//! Outcome tapes: the functional half of the functional/timing split.
//!
//! The functional behavior of the cache hierarchy — which level serves
//! each access, which writebacks cascade into the LLC, which prefetches
//! fill, which victims invalidate — depends only on the trace and the
//! hierarchy *geometry* (core count, L1/L2/LLC shapes, replacement,
//! warmup, and the inclusive/prefetch/bypass flags). It never depends on
//! an NVM technology's latency or energy parameters. The paper's matrix
//! (Figures 1–2) evaluates eleven technologies against one geometry, so
//! ten of the eleven functional simulations per workload are identical.
//!
//! [`System::record`](crate::system::System::record) runs that functional
//! pass once and emits an [`OutcomeTape`]: one [`TapeEvent`] per
//! post-warmup trace event, stored as three parallel lanes (`u32` gap,
//! `u8` core, `u8` flags), plus two varint/delta-compacted side streams
//! of block addresses for the endurance tracker and the detailed-DRAM
//! model. The recorded form is the only form: the replay kernels read
//! the lanes directly, and persistence writes them verbatim.
//! [`System::replay_batch`](crate::system::System::replay_batch) then
//! applies any number of technologies' cycle latencies, port contention,
//! ROB/MSHR miss-shadow accounting, DRAM models, and energy equations
//! (7)–(8) in one pass over the lanes, producing `SimResult`s
//! bit-identical to the fused single-pass
//! [`System::run`](crate::system::System::run).
//!
//! [`cache`] memoizes tapes process-wide (exactly-once generation behind
//! `Arc<OnceLock>`, the same discipline as `nvm_llc_trace::cache`), so an
//! evaluation matrix performs one functional pass per distinct geometry
//! and replays everything else. The cache is bounded by a byte budget
//! with LRU eviction (default 256 MiB, [`cache::BUDGET_ENV`] override);
//! [`OutcomeTape::bytes`] counts every buffer a tape owns, so the budget
//! bounds what the cache holds.

use crate::policy::PolicyKind;
use crate::result::SimStats;

/// Which hierarchy level served a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served by the private L1D.
    L1Hit,
    /// L1 miss, served by the private L2.
    L2Hit,
    /// L1+L2 miss, served by the shared LLC.
    LlcHit,
    /// Missed the whole hierarchy; DRAM provides the block.
    LlcMiss,
}

impl Outcome {
    fn from_bits(bits: u8) -> Outcome {
        match bits & 0b11 {
            0 => Outcome::L1Hit,
            1 => Outcome::L2Hit,
            2 => Outcome::LlcHit,
            _ => Outcome::LlcMiss,
        }
    }
}

/// One trace event's functional outcome: what
/// [`System::record`](crate::system::System::record)'s functional walk
/// emits, what an [`OutcomeTape`] stores lane by lane, and what the
/// timing engine consumes.
///
/// The flags fully determine how many entries the event consumes from
/// the tape's endurance and DRAM side streams ([`TapeEvent::side_counts`]),
/// so replay needs no per-event indices into them — a running cursor
/// suffices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeEvent {
    pub(crate) gap: u32,
    pub(crate) core: u8,
    /// Bit 0 is-write, bits 1–2 outcome class, bits 3–7 the side-event
    /// flags (L1-writeback LLC write, L2-writeback LLC write,
    /// prefetch-evict LLC write, prefetch LLC fill, LLC filled).
    pub(crate) flags: u8,
}

impl TapeEvent {
    const IS_WRITE: u8 = 1;
    const CLASS_SHIFT: u32 = 1;
    const L1_WB_LLC_WRITE: u8 = 1 << 3;
    const L2_WB_LLC_WRITE: u8 = 1 << 4;
    const PF_EVICT_LLC_WRITE: u8 = 1 << 5;
    const PF_LLC_FILL: u8 = 1 << 6;
    const LLC_FILLED: u8 = 1 << 7;

    /// Starts an event on `core` after `gap` non-memory instructions,
    /// defaulting to an L1 hit with no side events.
    pub fn new(core: u8, gap: u32, is_write: bool) -> TapeEvent {
        TapeEvent {
            gap,
            core,
            flags: if is_write { Self::IS_WRITE } else { 0 },
        }
    }

    /// Sets the outcome class (default [`Outcome::L1Hit`]).
    pub fn with_outcome(mut self, outcome: Outcome) -> TapeEvent {
        self.flags |= (outcome as u8) << Self::CLASS_SHIFT;
        self
    }

    /// Flags an LLC write from the L1 victim's L2-eviction cascade.
    pub fn with_l1_writeback_llc_write(mut self) -> TapeEvent {
        self.flags |= Self::L1_WB_LLC_WRITE;
        self
    }

    /// Flags an LLC write from the L2's own dirty victim.
    pub fn with_l2_writeback_llc_write(mut self) -> TapeEvent {
        self.flags |= Self::L2_WB_LLC_WRITE;
        self
    }

    /// Flags an LLC write from the prefetch fill's dirty L2 victim.
    pub fn with_prefetch_evict_llc_write(mut self) -> TapeEvent {
        self.flags |= Self::PF_EVICT_LLC_WRITE;
        self
    }

    /// Flags a prefetch fill that allocated in the LLC (one DRAM access).
    pub fn with_prefetch_llc_fill(mut self) -> TapeEvent {
        self.flags |= Self::PF_LLC_FILL;
        self
    }

    /// Flags a demand miss that allocated its block (not bypassed).
    pub fn with_llc_filled(mut self) -> TapeEvent {
        self.flags |= Self::LLC_FILLED;
        self
    }

    /// Non-memory instructions preceding the access.
    pub fn gap_instructions(self) -> u32 {
        self.gap
    }

    /// Core (0-based) the event ran on.
    pub fn core(self) -> usize {
        usize::from(self.core)
    }

    /// Whether the access was a store.
    pub fn is_write(self) -> bool {
        self.flags & Self::IS_WRITE != 0
    }

    /// The serving level.
    pub fn outcome(self) -> Outcome {
        Outcome::from_bits(self.flags >> Self::CLASS_SHIFT)
    }

    /// LLC write from the L1 victim cascade?
    pub fn l1_writeback_llc_write(self) -> bool {
        self.flags & Self::L1_WB_LLC_WRITE != 0
    }

    /// LLC write from the L2 dirty victim?
    pub fn l2_writeback_llc_write(self) -> bool {
        self.flags & Self::L2_WB_LLC_WRITE != 0
    }

    /// LLC write from the prefetch fill's dirty L2 victim?
    pub fn prefetch_evict_llc_write(self) -> bool {
        self.flags & Self::PF_EVICT_LLC_WRITE != 0
    }

    /// Prefetch allocated in the LLC?
    pub fn prefetch_llc_fill(self) -> bool {
        self.flags & Self::PF_LLC_FILL != 0
    }

    /// Demand miss allocated its block?
    pub fn llc_filled(self) -> bool {
        self.flags & Self::LLC_FILLED != 0
    }

    /// How many entries this event consumes from the endurance and DRAM
    /// side streams during replay. Mirrors `TimingEngine::apply`'s
    /// early-out structure; [`OutcomeTape::from_parts`] uses it to check
    /// that the side streams partition exactly across the events.
    pub(crate) fn side_counts(self) -> (usize, usize) {
        let outcome = self.outcome();
        if outcome == Outcome::L1Hit {
            return (0, 0);
        }
        let mut wear = usize::from(self.l1_writeback_llc_write());
        if outcome == Outcome::L2Hit {
            return (wear, 0);
        }
        wear += usize::from(self.l2_writeback_llc_write());
        wear += usize::from(self.prefetch_evict_llc_write());
        let mut dram = 0;
        if self.prefetch_llc_fill() {
            wear += 1;
            dram += 1;
        }
        if outcome == Outcome::LlcHit {
            return (wear, dram);
        }
        wear += usize::from(self.llc_filled());
        (wear, dram + 1)
    }
}

/// Per-event side-event scratch: block addresses the event contributed to
/// the endurance and DRAM streams, in emission order. Fixed-capacity (an
/// event touches the LLC array at most five times and DRAM at most
/// twice), so the hot loop never allocates.
#[derive(Debug, Default)]
pub(crate) struct SideEvents {
    endurance: [u64; 5],
    endurance_len: u8,
    dram: [u64; 2],
    dram_len: u8,
}

impl SideEvents {
    pub(crate) fn clear(&mut self) {
        self.endurance_len = 0;
        self.dram_len = 0;
    }

    /// Queues one LLC array write (endurance stream).
    pub(crate) fn push_endurance(&mut self, block: u64) {
        self.endurance[usize::from(self.endurance_len)] = block;
        self.endurance_len += 1;
    }

    /// Queues one DRAM access (detailed-DRAM stream).
    pub(crate) fn push_dram(&mut self, block: u64) {
        self.dram[usize::from(self.dram_len)] = block;
        self.dram_len += 1;
    }

    pub(crate) fn endurance(&self) -> &[u64] {
        &self.endurance[..usize::from(self.endurance_len)]
    }

    pub(crate) fn dram(&self) -> &[u64] {
        &self.dram[..usize::from(self.dram_len)]
    }
}

/// A block-address stream stored as zigzag-deltas in LEB128 varints.
///
/// Both side streams are dominated by short hops inside a working set
/// (writebacks and fills of nearby blocks), so the signed delta from the
/// previous address usually fits one or two bytes instead of the eight a
/// flat `u64` costs. Appending and sequential decoding are the only
/// operations replay needs, and both are branch-light.
#[derive(Debug, Clone, Default)]
pub struct PackedBlocks {
    bytes: Vec<u8>,
    len: usize,
    /// Encoder state: the previously pushed address.
    last: u64,
}

impl PackedBlocks {
    /// Longest LEB128 encoding of a `u64`: ⌈64 / 7⌉ bytes.
    const MAX_VARINT_BYTES: usize = 10;

    pub(crate) fn push(&mut self, block: u64) {
        let delta = block.wrapping_sub(self.last) as i64;
        self.last = block;
        let mut zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
        loop {
            let byte = (zigzag & 0x7F) as u8;
            zigzag >>= 7;
            if zigzag == 0 {
                self.bytes.push(byte);
                break;
            }
            self.bytes.push(byte | 0x80);
        }
        self.len += 1;
    }

    /// Number of encoded addresses.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sequential decoder over the stream.
    pub fn iter(&self) -> BlockIter<'_> {
        BlockIter {
            bytes: &self.bytes,
            pos: 0,
            prev: 0,
            remaining: self.len,
        }
    }

    /// Heap bytes held by the encoded form.
    fn encoded_bytes(&self) -> usize {
        self.bytes.capacity()
    }

    /// The encoded stream's raw parts, for serialization: varint bytes,
    /// address count, and the encoder's last-address state.
    pub(crate) fn parts(&self) -> (&[u8], usize, u64) {
        (&self.bytes, self.len, self.last)
    }

    /// Rebuilds a stream from [`PackedBlocks::parts`] output, or `None`
    /// unless `bytes` holds exactly `len` well-formed varints: each at
    /// most [`Self::MAX_VARINT_BYTES`] long, the last one ending the
    /// buffer. [`BlockIter`] can then never read past the end or shift
    /// past 64 bits.
    pub(crate) fn from_parts(bytes: Vec<u8>, len: usize, last: u64) -> Option<PackedBlocks> {
        let (mut varints, mut run) = (0usize, 0usize);
        for &byte in &bytes {
            run += 1;
            if run > Self::MAX_VARINT_BYTES {
                return None;
            }
            if byte & 0x80 == 0 {
                varints += 1;
                run = 0;
            }
        }
        (run == 0 && varints == len).then_some(PackedBlocks { bytes, len, last })
    }

    /// Bytes a flat `Vec<u64>` of the same stream would hold.
    fn raw_bytes(&self) -> usize {
        self.len * std::mem::size_of::<u64>()
    }
}

/// Decoding iterator over a [`PackedBlocks`] stream.
#[derive(Debug, Clone)]
pub struct BlockIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev: u64,
    remaining: usize,
}

impl Iterator for BlockIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let mut zigzag = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.bytes[self.pos];
            self.pos += 1;
            zigzag |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        let delta = ((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64);
        self.prev = self.prev.wrapping_add(delta as u64);
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for BlockIter<'_> {}

/// Events per replay chunk: the batched replay walks the tape's lanes in
/// fixed-size blocks of this many events (see
/// [`System::replay_batch`](crate::system::System::replay_batch)). At
/// 1024 events a chunk's lanes (`u32` gap + core + flag) total 6 KiB —
/// comfortably inside one L1 data cache while every engine streams over
/// it.
pub const REPLAY_CHUNK_EVENTS: usize = 1024;

/// The recorded functional outcome of one `(trace, geometry)` pair —
/// everything Phase B (timing/energy replay) needs, and nothing else.
///
/// Events live in three parallel lanes indexed by event (gap, core,
/// flags — the fields of [`TapeEvent`]), which is exactly the form the
/// replay kernels stream and the form persistence writes. Every event
/// indexes a core below [`OutcomeTape::cores`], and the per-event side
/// counts sum to the side streams' lengths: recording guarantees both,
/// and [`OutcomeTape::from_parts`] checks them on anything rebuilt from
/// bytes.
#[derive(Debug, Clone)]
pub struct OutcomeTape {
    gap_lane: Vec<u32>,
    core_lane: Vec<u8>,
    flag_lane: Vec<u8>,
    /// LLC array-write block addresses (endurance stream), in order,
    /// varint/delta-compacted.
    endurance_blocks: PackedBlocks,
    /// DRAM access block addresses (detailed-DRAM stream), in order,
    /// varint/delta-compacted.
    dram_blocks: PackedBlocks,
    /// Functional counters (the timing-side fields stay zero).
    stats: SimStats,
    /// Core count the tape was recorded for (replay must match).
    cores: u32,
    /// Whether every event ran on core 0. A single-threaded workload
    /// under a multi-core config exercises only timing lane 0, so the
    /// fast replay kernel runs one unfiltered pass instead of one pass
    /// per core.
    single_core: bool,
}

impl OutcomeTape {
    pub(crate) fn with_capacity(events: usize, cores: u32) -> OutcomeTape {
        OutcomeTape {
            gap_lane: Vec::with_capacity(events),
            core_lane: Vec::with_capacity(events),
            flag_lane: Vec::with_capacity(events),
            endurance_blocks: PackedBlocks::default(),
            dram_blocks: PackedBlocks::default(),
            stats: SimStats::default(),
            cores,
            single_core: true,
        }
    }

    pub(crate) fn push(&mut self, event: TapeEvent, sides: &SideEvents) {
        self.gap_lane.push(event.gap);
        self.core_lane.push(event.core);
        self.flag_lane.push(event.flags);
        self.single_core &= event.core == 0;
        for &block in sides.endurance() {
            self.endurance_blocks.push(block);
        }
        for &block in sides.dram() {
            self.dram_blocks.push(block);
        }
    }

    pub(crate) fn set_stats(&mut self, stats: SimStats) {
        self.stats = stats;
    }

    /// Rebuilds a tape from deserialized parts (`crate::persist`), or
    /// `None` unless the parts are consistent the way a recorded tape is:
    /// the three lanes have one length, every core index is below
    /// `cores`, and the events' side counts sum exactly to each side
    /// stream's length. Replay then never indexes a missing timing lane
    /// or runs a side cursor dry.
    pub(crate) fn from_parts(
        (gap_lane, core_lane, flag_lane): (Vec<u32>, Vec<u8>, Vec<u8>),
        endurance_blocks: PackedBlocks,
        dram_blocks: PackedBlocks,
        stats: SimStats,
        cores: u32,
    ) -> Option<OutcomeTape> {
        let n = gap_lane.len();
        if core_lane.len() != n || flag_lane.len() != n {
            return None;
        }
        if core_lane.iter().any(|&core| u32::from(core) >= cores) {
            return None;
        }
        let (wear, dram) = flag_lane.iter().fold((0, 0), |(wear, dram), &flags| {
            let (w, d) = TapeEvent {
                gap: 0,
                core: 0,
                flags,
            }
            .side_counts();
            (wear + w, dram + d)
        });
        if wear != endurance_blocks.len() || dram != dram_blocks.len() {
            return None;
        }
        let single_core = core_lane.iter().all(|&core| core == 0);
        Some(OutcomeTape {
            gap_lane,
            core_lane,
            flag_lane,
            endurance_blocks,
            dram_blocks,
            stats,
            cores,
            single_core,
        })
    }

    /// The event lanes (gap, core, flags), for the replay kernels and
    /// serialization by [`crate::persist`].
    pub(crate) fn lanes(&self) -> (&[u32], &[u8], &[u8]) {
        (&self.gap_lane, &self.core_lane, &self.flag_lane)
    }

    /// The raw packed side streams (endurance, DRAM), for serialization
    /// by [`crate::persist`].
    pub(crate) fn packed_streams(&self) -> (&PackedBlocks, &PackedBlocks) {
        (&self.endurance_blocks, &self.dram_blocks)
    }

    /// The tape itself. The recorded lanes are already the form replay
    /// reads, so there is nothing to decode; this accessor exists only
    /// because the `llcbench` benchmark calls it.
    #[doc(hidden)]
    pub fn decoded(&self) -> &Self {
        self
    }

    /// Event `i`, reassembled from its lanes.
    pub(crate) fn event(&self, i: usize) -> TapeEvent {
        TapeEvent {
            gap: self.gap_lane[i],
            core: self.core_lane[i],
            flags: self.flag_lane[i],
        }
    }

    /// Every event, in trace order.
    #[cfg(test)]
    pub(crate) fn events(&self) -> impl ExactSizeIterator<Item = TapeEvent> + '_ {
        (0..self.len()).map(|i| self.event(i))
    }

    /// The endurance stream (LLC array writes, block addresses), decoded
    /// sequentially from its varint/delta form.
    pub fn endurance_blocks(&self) -> BlockIter<'_> {
        self.endurance_blocks.iter()
    }

    /// The DRAM stream (block addresses, `Dram::access` call order),
    /// decoded sequentially from its varint/delta form.
    pub fn dram_blocks(&self) -> BlockIter<'_> {
        self.dram_blocks.iter()
    }

    /// The functional statistics of the recorded run (timing fields zero).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Core count the tape encodes.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Whether every event ran on core 0 (single-threaded workload).
    pub(crate) fn is_single_core(&self) -> bool {
        self.single_core
    }

    /// Post-warmup events on the tape.
    pub fn len(&self) -> usize {
        self.gap_lane.len()
    }

    /// Whether the tape holds no events.
    pub fn is_empty(&self) -> bool {
        self.gap_lane.is_empty()
    }

    /// Heap bytes of every buffer the tape owns (capacity-based): the
    /// three event lanes and both side streams at their encoded size.
    /// This is what the tape cache charges against its budget.
    pub fn bytes(&self) -> usize {
        self.gap_lane.capacity() * std::mem::size_of::<u32>()
            + self.core_lane.capacity()
            + self.flag_lane.capacity()
            + self.endurance_blocks.encoded_bytes()
            + self.dram_blocks.encoded_bytes()
    }

    /// What the same tape would occupy with flat `u64` side arrays — the
    /// pre-compaction footprint the cache stats report against.
    pub fn raw_bytes(&self) -> usize {
        self.len() * (std::mem::size_of::<u32>() + 2)
            + self.endurance_blocks.raw_bytes()
            + self.dram_blocks.raw_bytes()
    }
}

/// Everything the functional pass depends on: change any field and the
/// outcome tape changes; hold them fixed and every technology shares one.
///
/// Notably absent: latencies, energies, the LLC write policy, ROB/MSHR
/// bounds, the DRAM backend choice, write mode, and endurance tracking —
/// those only shape Phase B.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TapeKey {
    trace_uid: u64,
    /// Content-derived trace identity ([`Trace::content_hash`]) — the
    /// process-independent half of the key, used by persistence
    /// ([`TapeKey::persist_bytes`]) where `trace_uid` would not survive
    /// a restart.
    trace_hash: u128,
    cores: u32,
    /// (capacity, associativity, block) per private level.
    l1d: (u64, u32, u32),
    l2: (u64, u32, u32),
    llc_capacity_bytes: u64,
    replacement: PolicyKind,
    /// `f64::to_bits` of the warmup fraction (bit-exact key).
    warmup_bits: u64,
    inclusive_llc: bool,
    l2_prefetch: bool,
    llc_bypass: bool,
}

impl TapeKey {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        trace_uid: u64,
        trace_hash: u128,
        cores: u32,
        l1d: (u64, u32, u32),
        l2: (u64, u32, u32),
        llc_capacity_bytes: u64,
        replacement: PolicyKind,
        warmup_fraction: f64,
        inclusive_llc: bool,
        l2_prefetch: bool,
        llc_bypass: bool,
    ) -> TapeKey {
        TapeKey {
            trace_uid,
            trace_hash,
            cores,
            l1d,
            l2,
            llc_capacity_bytes,
            replacement,
            warmup_bits: warmup_fraction.to_bits(),
            inclusive_llc,
            l2_prefetch,
            llc_bypass,
        }
    }

    /// The key's process-independent identity, serialized for content
    /// addressing: every field **except** the process-local `trace_uid`
    /// (the trace's content hash stands in for it). Two processes
    /// evaluating identical traces on identical geometries produce the
    /// same bytes — that is what lets a persistent store serve one's
    /// tapes to the other.
    pub(crate) fn persist_bytes(&self) -> Vec<u8> {
        let mut w = nvm_llc_store::wire::Writer::new();
        w.u128(self.trace_hash)
            .u32(self.cores)
            .u64(self.l1d.0)
            .u32(self.l1d.1)
            .u32(self.l1d.2)
            .u64(self.l2.0)
            .u32(self.l2.1)
            .u32(self.l2.2)
            .u64(self.llc_capacity_bytes)
            .u8(self.replacement.persist_tag())
            .u64(self.warmup_bits)
            .bool(self.inclusive_llc)
            .bool(self.l2_prefetch)
            .bool(self.llc_bypass);
        w.into_bytes()
    }
}

pub mod cache {
    //! Process-wide outcome-tape cache: one functional pass per distinct
    //! `(trace, geometry)` key, shared by every technology replaying it.
    //!
    //! Mirrors `nvm_llc_trace::cache`: concurrent fetches of one key race
    //! to install a slot, exactly one runs [`System::record`], the rest
    //! block on the slot's `OnceLock` and receive the same
    //! `Arc<OutcomeTape>`. [`stats`] exposes hit/miss/byte/eviction
    //! counters so experiment binaries can log cache effectiveness.
    //!
    //! Residency is bounded by a byte budget (default
    //! [`DEFAULT_BUDGET_BYTES`], overridable via the [`BUDGET_ENV`]
    //! environment variable or [`set_byte_budget`] — the
    //! `Evaluator::tape_cache_bytes` builder routes through the latter).
    //! When recorded tapes exceed the budget, least-recently-fetched
    //! entries are evicted; in-flight `Arc`s stay alive until their
    //! holders drop them, and a re-fetch of an evicted key simply records
    //! again.

    use std::collections::HashMap;
    use std::fmt;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    use nvm_llc_trace::Trace;

    use super::{OutcomeTape, TapeKey};
    use crate::system::System;

    type Slot = Arc<OnceLock<Arc<OutcomeTape>>>;

    /// Default residency budget: ~256 MiB of encoded tape.
    pub const DEFAULT_BUDGET_BYTES: u64 = 256 << 20;

    /// Environment variable overriding the budget, in MiB (`0` lifts the
    /// bound entirely). Read once, at the cache's first use; later
    /// changes go through [`set_byte_budget`].
    pub const BUDGET_ENV: &str = "NVM_LLC_TAPE_CACHE_MB";

    struct Entry {
        slot: Slot,
        /// Encoded size, filled in once the tape is recorded (`0` while
        /// the functional pass is still in flight — such entries are
        /// never evicted).
        bytes: u64,
        /// Lamport-style recency stamp from `Inner::clock`.
        last_used: u64,
    }

    struct Inner {
        map: HashMap<TapeKey, Entry>,
        clock: u64,
        /// Total encoded bytes of resident, fully recorded tapes.
        resident: u64,
        budget: u64,
    }

    /// Parses a [`BUDGET_ENV`] value into a byte budget (`0` lifts the
    /// bound). `Err` carries the one-line warning to print: the variable
    /// name, the rejected value, and the fallback that applies.
    pub(crate) fn parse_budget_mib(raw: &str) -> Result<u64, String> {
        match raw.trim().parse::<u64>() {
            Ok(0) => Ok(u64::MAX),
            Ok(mib) => Ok(mib << 20),
            Err(_) => Err(format!(
                "warning: ignoring invalid {BUDGET_ENV}={raw:?} \
                 (want MiB as an integer >= 0); using the default \
                 {} MiB budget",
                DEFAULT_BUDGET_BYTES >> 20
            )),
        }
    }

    fn inner() -> &'static Mutex<Inner> {
        static INNER: OnceLock<Mutex<Inner>> = OnceLock::new();
        INNER.get_or_init(|| {
            let budget = match std::env::var(BUDGET_ENV) {
                Ok(raw) => parse_budget_mib(&raw).unwrap_or_else(|warning| {
                    eprintln!("{warning}");
                    DEFAULT_BUDGET_BYTES
                }),
                Err(_) => DEFAULT_BUDGET_BYTES,
            };
            Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                resident: 0,
                budget,
            })
        })
    }

    static HITS: AtomicU64 = AtomicU64::new(0);
    static MISSES: AtomicU64 = AtomicU64::new(0);
    static STORE_HITS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    static RAW_BYTES: AtomicU64 = AtomicU64::new(0);
    static EVICTIONS: AtomicU64 = AtomicU64::new(0);

    /// The same counters, mirrored into the process-wide [`nvm_llc_obs`]
    /// registry (plus a residency gauge) so `/metricsz` and `/statsz`
    /// expose them without a bespoke snapshot path.
    pub mod metrics {
        use nvm_llc_obs::metrics::{counter, gauge, Counter, Gauge};

        /// `nvmllc_tape_cache_hits_total`
        pub fn hits() -> &'static Counter {
            counter(
                "nvmllc_tape_cache_hits_total",
                "Tape cache fetches served by an already-installed slot.",
            )
        }

        /// `nvmllc_tape_cache_misses_total`
        pub fn misses() -> &'static Counter {
            counter(
                "nvmllc_tape_cache_misses_total",
                "Tape cache fetches that found no resident tape.",
            )
        }

        /// `nvmllc_tape_cache_store_hits_total`
        pub fn store_hits() -> &'static Counter {
            counter(
                "nvmllc_tape_cache_store_hits_total",
                "Tape cache misses satisfied by decoding a persisted tape \
                 instead of re-running the functional pass.",
            )
        }

        /// `nvmllc_tape_cache_evictions_total`
        pub fn evictions() -> &'static Counter {
            counter(
                "nvmllc_tape_cache_evictions_total",
                "Tapes evicted to stay under the residency byte budget.",
            )
        }

        /// `nvmllc_tape_cache_resident_bytes`
        pub fn resident_bytes() -> &'static Gauge {
            gauge(
                "nvmllc_tape_cache_resident_bytes",
                "Encoded bytes of outcome tape currently resident.",
            )
        }

        /// Pre-registers this module's metric inventory, spans included.
        pub fn register() {
            hits();
            misses();
            store_hits();
            evictions();
            resident_bytes();
            for (name, help) in [
                (
                    "nvmllc_tape_fetch_seconds",
                    "Wall time of the `tape_fetch` span (cache hit or full fetch).",
                ),
                (
                    "nvmllc_tape_record_seconds",
                    "Wall time of the `tape_record` span.",
                ),
                (
                    "nvmllc_tape_replay_batch_seconds",
                    "Wall time of the `tape_replay_batch` span.",
                ),
                (
                    "nvmllc_tape_replay_chunk_seconds",
                    "Wall time of one batched-replay event chunk (all \
                     engines over one block of tape lanes).",
                ),
            ] {
                nvm_llc_obs::metrics::histogram(name, help);
            }
        }
    }

    /// Counters describing the cache's effectiveness so far.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CacheStats {
        /// Fetches served by an already-installed tape slot.
        pub hits: u64,
        /// Fetches that found no resident tape. Each one either decoded
        /// a persisted tape ([`CacheStats::store_hits`]) or ran a
        /// functional pass — `misses - store_hits` is the number of
        /// functional passes actually executed.
        pub misses: u64,
        /// Memory misses satisfied by decoding a tape from the
        /// persistent store instead of re-running the functional pass.
        pub store_hits: u64,
        /// Total encoded bytes of tape recorded (varint/delta form).
        pub bytes: u64,
        /// What the same tapes would have occupied with flat `u64` side
        /// arrays — `bytes / raw_bytes` is the compaction ratio.
        pub raw_bytes: u64,
        /// Entries evicted to stay under the byte budget.
        pub evictions: u64,
        /// Encoded bytes currently resident.
        pub resident_bytes: u64,
    }

    impl fmt::Display for CacheStats {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "{} hits / {} misses ({} from store, {} functional \
                 passes), {:.1} MiB taped ({:.1} MiB raw, {} evictions)",
                self.hits,
                self.misses,
                self.store_hits,
                self.misses - self.store_hits,
                self.bytes as f64 / (1024.0 * 1024.0),
                self.raw_bytes as f64 / (1024.0 * 1024.0),
                self.evictions,
            )
        }
    }

    /// Fetches (recording exactly once while the key stays resident) the
    /// outcome tape for running `system` over `trace`.
    ///
    /// Keyed by [`System::tape_key`]; every technology whose
    /// configuration shares the functional geometry receives a pointer-
    /// equal `Arc<OutcomeTape>`.
    pub fn fetch(system: &System, trace: &Arc<Trace>) -> Arc<OutcomeTape> {
        fetch_with_store(system, trace, None)
    }

    /// [`fetch`] with a persistent middle tier: a memory miss first
    /// tries to decode the tape from `store` (content-addressed by
    /// [`crate::persist::tape_store_key`]) and only records when the
    /// disk also misses; freshly recorded tapes are written back. Any
    /// store read failure — absent, corrupt, inconsistent, stale format,
    /// or recorded for another core count — silently falls through to
    /// recompute.
    pub fn fetch_with_store(
        system: &System,
        trace: &Arc<Trace>,
        store: Option<&Arc<nvm_llc_store::Store>>,
    ) -> Arc<OutcomeTape> {
        let _span = nvm_llc_obs::span!("tape_fetch");
        let key = system.tape_key(trace);
        let (slot, fresh) = {
            let mut inner = inner().lock().expect("tape cache lock");
            inner.clock += 1;
            let now = inner.clock;
            match inner.map.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = now;
                    (Arc::clone(&entry.slot), false)
                }
                None => {
                    let slot: Slot = Arc::new(OnceLock::new());
                    inner.map.insert(
                        key.clone(),
                        Entry {
                            slot: Arc::clone(&slot),
                            bytes: 0,
                            last_used: now,
                        },
                    );
                    (slot, true)
                }
            }
        };
        // A slot found in the map may still be mid-generation; only the
        // installer counts the miss, everyone else a hit (they reuse the
        // single functional pass either way).
        if fresh {
            MISSES.fetch_add(1, Ordering::Relaxed);
            metrics::misses().inc();
        } else {
            HITS.fetch_add(1, Ordering::Relaxed);
            metrics::hits().inc();
        }
        let tape = Arc::clone(slot.get_or_init(|| {
            if let Some(store) = store {
                let store_key = crate::persist::tape_store_key(&key);
                // A payload for another core count cannot be this key's
                // tape, and replay would reject it.
                if let Some(tape) = store
                    .get_mapped(&store_key)
                    .and_then(|payload| crate::persist::decode_tape(&payload))
                    .filter(|tape| tape.cores() == system.config().cores)
                {
                    STORE_HITS.fetch_add(1, Ordering::Relaxed);
                    metrics::store_hits().inc();
                    let tape = Arc::new(tape);
                    BYTES.fetch_add(tape.bytes() as u64, Ordering::Relaxed);
                    RAW_BYTES.fetch_add(tape.raw_bytes() as u64, Ordering::Relaxed);
                    return tape;
                }
                let tape = Arc::new(system.record(trace));
                let _ = store.put(&store_key, &crate::persist::encode_tape(&tape));
                BYTES.fetch_add(tape.bytes() as u64, Ordering::Relaxed);
                RAW_BYTES.fetch_add(tape.raw_bytes() as u64, Ordering::Relaxed);
                return tape;
            }
            let tape = Arc::new(system.record(trace));
            BYTES.fetch_add(tape.bytes() as u64, Ordering::Relaxed);
            RAW_BYTES.fetch_add(tape.raw_bytes() as u64, Ordering::Relaxed);
            tape
        }));
        if fresh {
            // Charge the recorded size to the residency account and shed
            // least-recently-used entries over budget. The key just
            // fetched is exempt: a budget smaller than one tape must not
            // turn every fetch into a record.
            let mut guard = inner().lock().expect("tape cache lock");
            let inner = &mut *guard;
            if let Some(entry) = inner.map.get_mut(&key) {
                if entry.bytes == 0 {
                    entry.bytes = tape.bytes() as u64;
                    inner.resident += entry.bytes;
                }
            }
            evict_over_budget(inner, Some(&key));
            metrics::resident_bytes().set(inner.resident);
        }
        tape
    }

    /// Removes least-recently-used recorded entries until residency fits
    /// the budget. Entries mid-recording (`bytes == 0`) and the `keep`
    /// key are never shed.
    fn evict_over_budget(inner: &mut Inner, keep: Option<&TapeKey>) {
        while inner.resident > inner.budget {
            let victim = inner
                .map
                .iter()
                .filter(|(k, e)| e.bytes > 0 && Some(*k) != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            let Some(key) = victim else { break };
            let entry = inner.map.remove(&key).expect("victim key resident");
            inner.resident -= entry.bytes;
            EVICTIONS.fetch_add(1, Ordering::Relaxed);
            metrics::evictions().inc();
        }
    }

    /// Sets the residency budget in bytes (process-wide) and immediately
    /// sheds LRU entries down to it. `u64::MAX` lifts the bound.
    pub fn set_byte_budget(bytes: u64) {
        let mut inner = inner().lock().expect("tape cache lock");
        inner.budget = bytes;
        evict_over_budget(&mut inner, None);
        metrics::resident_bytes().set(inner.resident);
    }

    /// The current residency budget in bytes.
    pub fn byte_budget() -> u64 {
        inner().lock().expect("tape cache lock").budget
    }

    /// Drops every cached tape (cold-cache benchmarking; in-flight `Arc`s
    /// stay alive until their holders drop them). Counters keep running.
    pub fn clear() {
        let mut inner = inner().lock().expect("tape cache lock");
        inner.map.clear();
        inner.resident = 0;
        metrics::resident_bytes().set(0);
    }

    /// Number of cached tape slots.
    pub fn len() -> usize {
        inner().lock().expect("tape cache lock").map.len()
    }

    /// Snapshot of the process-wide cache counters.
    pub fn stats() -> CacheStats {
        let resident_bytes = inner().lock().expect("tape cache lock").resident;
        CacheStats {
            hits: HITS.load(Ordering::Relaxed),
            misses: MISSES.load(Ordering::Relaxed),
            store_hits: STORE_HITS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            raw_bytes: RAW_BYTES.load(Ordering::Relaxed),
            evictions: EVICTIONS.load(Ordering::Relaxed),
            resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_every_field() {
        let r = TapeEvent::new(3, 0xDEAD_BEEF, true)
            .with_outcome(Outcome::LlcMiss)
            .with_l1_writeback_llc_write()
            .with_l2_writeback_llc_write()
            .with_prefetch_evict_llc_write()
            .with_prefetch_llc_fill()
            .with_llc_filled();
        assert_eq!(r.gap_instructions(), 0xDEAD_BEEF);
        assert_eq!(r.core(), 3);
        assert!(r.is_write());
        assert_eq!(r.outcome(), Outcome::LlcMiss);
        assert!(r.l1_writeback_llc_write());
        assert!(r.l2_writeback_llc_write());
        assert!(r.prefetch_evict_llc_write());
        assert!(r.prefetch_llc_fill());
        assert!(r.llc_filled());
    }

    #[test]
    fn parse_budget_mib_accepts_mib_and_warns_otherwise() {
        assert_eq!(cache::parse_budget_mib("64"), Ok(64 << 20));
        assert_eq!(cache::parse_budget_mib(" 1 "), Ok(1 << 20));
        // 0 lifts the bound entirely.
        assert_eq!(cache::parse_budget_mib("0"), Ok(u64::MAX));
        for bad in ["-3", "abc", "", "2.5"] {
            let warning = cache::parse_budget_mib(bad).unwrap_err();
            assert!(warning.contains(cache::BUDGET_ENV), "{warning}");
            assert!(warning.contains(&format!("{bad:?}")), "{warning}");
            assert!(warning.contains("256 MiB"), "{warning}");
        }
    }

    #[test]
    fn default_record_is_a_flagless_l1_hit() {
        let r = TapeEvent::new(0, 7, false);
        assert_eq!(r.outcome(), Outcome::L1Hit);
        assert!(!r.is_write());
        assert!(!r.l1_writeback_llc_write());
        assert!(!r.l2_writeback_llc_write());
        assert!(!r.prefetch_evict_llc_write());
        assert!(!r.prefetch_llc_fill());
        assert!(!r.llc_filled());
        assert_eq!(r.gap_instructions(), 7);
    }

    #[test]
    fn outcome_classes_round_trip() {
        for o in [
            Outcome::L1Hit,
            Outcome::L2Hit,
            Outcome::LlcHit,
            Outcome::LlcMiss,
        ] {
            assert_eq!(TapeEvent::new(0, 0, false).with_outcome(o).outcome(), o);
        }
    }

    #[test]
    fn side_events_accumulate_and_clear() {
        let mut s = SideEvents::default();
        s.push_endurance(10);
        s.push_endurance(20);
        s.push_dram(30);
        assert_eq!(s.endurance(), &[10, 20]);
        assert_eq!(s.dram(), &[30]);
        s.clear();
        assert!(s.endurance().is_empty());
        assert!(s.dram().is_empty());
    }

    #[test]
    fn tape_push_appends_records_and_streams() {
        let mut tape = OutcomeTape::with_capacity(2, 4);
        let mut s = SideEvents::default();
        s.push_endurance(1);
        s.push_dram(2);
        tape.push(TapeEvent::new(0, 0, false), &s);
        assert!(tape.is_single_core());
        s.clear();
        tape.push(TapeEvent::new(1, 5, true), &s);
        assert!(!tape.is_single_core());
        assert_eq!(tape.len(), 2);
        assert!(!tape.is_empty());
        assert_eq!(tape.endurance_blocks().collect::<Vec<_>>(), vec![1]);
        assert_eq!(tape.dram_blocks().collect::<Vec<_>>(), vec![2]);
        assert_eq!(tape.cores(), 4);
        // Lanes: 4 + 1 + 1 bytes per event, plus both streams' buffers.
        assert_eq!(
            tape.bytes(),
            2 * 6 + tape.endurance_blocks.encoded_bytes() + tape.dram_blocks.encoded_bytes()
        );
        assert_eq!(tape.raw_bytes(), 2 * 6 + 2 * 8);
    }

    #[test]
    fn packed_blocks_round_trip_adversarial_sequences() {
        let sequences: [&[u64]; 5] = [
            &[],
            &[0],
            &[u64::MAX, 0, u64::MAX, 1, u64::MAX - 1],
            &[7, 7, 7, 7],
            &[1 << 63, (1 << 63) - 1, 42, 0, u64::MAX],
        ];
        for seq in sequences {
            let mut packed = PackedBlocks::default();
            for &b in seq {
                packed.push(b);
            }
            assert_eq!(packed.len(), seq.len());
            assert_eq!(packed.iter().collect::<Vec<_>>(), seq);
            assert_eq!(packed.iter().len(), seq.len());
            // The validating rebuild accepts every well-formed stream.
            let (bytes, len, last) = packed.parts();
            let rebuilt = PackedBlocks::from_parts(bytes.to_vec(), len, last).unwrap();
            assert_eq!(rebuilt.iter().collect::<Vec<_>>(), seq);
        }
    }

    #[test]
    fn packed_blocks_reject_inconsistent_parts() {
        let mut packed = PackedBlocks::default();
        for b in [u64::MAX, 3, 1 << 40] {
            packed.push(b);
        }
        let (bytes, len, last) = packed.parts();
        // A count the bytes do not hold, in either direction.
        assert!(PackedBlocks::from_parts(bytes.to_vec(), len + 1, last).is_none());
        assert!(PackedBlocks::from_parts(bytes.to_vec(), len - 1, last).is_none());
        // A stream cut mid-varint.
        let mut cut = bytes.to_vec();
        cut.pop();
        assert!(PackedBlocks::from_parts(cut, len, last).is_none());
        // A varint longer than any u64 needs.
        assert!(PackedBlocks::from_parts([vec![0x80; 10], vec![0]].concat(), 1, 0).is_none());
        assert!(PackedBlocks::from_parts([vec![0x80; 9], vec![1]].concat(), 1, 0).is_some());
    }

    #[test]
    fn packed_blocks_compact_local_streams() {
        // Block addresses hopping inside a working set: deltas fit one or
        // two varint bytes instead of eight.
        let mut packed = PackedBlocks::default();
        for i in 0..10_000u64 {
            packed.push((1 << 30) | ((i * 37) % 4096));
        }
        assert!(packed.bytes.len() * 3 < packed.raw_bytes());
        assert_eq!(packed.iter().count(), 10_000);
    }

    /// A three-event tape: an L1 hit, an L2 hit with an L1-writeback LLC
    /// write, and a filled LLC miss — side counts (0, 0), (1, 0), (1, 1).
    fn three_event_tape() -> OutcomeTape {
        let mut tape = OutcomeTape::with_capacity(3, 2);
        let mut s = SideEvents::default();
        tape.push(TapeEvent::new(0, 3, false), &s);
        s.push_endurance(10);
        tape.push(
            TapeEvent::new(1, 0, true)
                .with_outcome(Outcome::L2Hit)
                .with_l1_writeback_llc_write(),
            &s,
        );
        s.clear();
        s.push_endurance(99);
        s.push_dram(99);
        tape.push(
            TapeEvent::new(0, 5, false)
                .with_outcome(Outcome::LlcMiss)
                .with_llc_filled(),
            &s,
        );
        tape
    }

    #[test]
    fn tape_lanes_mirror_events_and_side_streams() {
        let tape = three_event_tape();
        assert_eq!(tape.len(), 3);
        assert_eq!(tape.cores(), 2);
        // The lanes are parallel views of the same events.
        let (gaps, cores, flags) = tape.lanes();
        for (i, event) in tape.events().enumerate() {
            assert_eq!(gaps[i], event.gap);
            assert_eq!(cores[i], event.core);
            assert_eq!(flags[i], event.flags);
        }
        assert_eq!(gaps, &[3, 0, 5]);
        assert_eq!(cores, &[0, 1, 0]);
        // The side streams carry the blocks in emission order, and the
        // per-event counts partition them.
        assert_eq!(tape.endurance_blocks().collect::<Vec<_>>(), vec![10, 99]);
        assert_eq!(tape.dram_blocks().collect::<Vec<_>>(), vec![99]);
        let counts: Vec<_> = tape.events().map(TapeEvent::side_counts).collect();
        assert_eq!(counts, vec![(0, 0), (1, 0), (1, 1)]);
        // The tape is its own replay form.
        assert!(std::ptr::eq(tape.decoded(), &tape));
    }

    #[test]
    fn from_parts_accepts_recorded_tapes_and_rejects_inconsistent_ones() {
        let tape = three_event_tape();
        let parts = |tape: &OutcomeTape| {
            let (gaps, cores, flags) = tape.lanes();
            (gaps.to_vec(), cores.to_vec(), flags.to_vec())
        };
        let rebuild = |lanes, cores| {
            let (endurance, dram) = tape.packed_streams();
            OutcomeTape::from_parts(
                lanes,
                endurance.clone(),
                dram.clone(),
                tape.stats().clone(),
                cores,
            )
        };
        let rebuilt = rebuild(parts(&tape), 2).unwrap();
        assert!(rebuilt.events().eq(tape.events()));
        assert!(!rebuilt.is_single_core());
        // Lanes of different lengths.
        let (gaps, cores, mut flags) = parts(&tape);
        flags.pop();
        assert!(rebuild((gaps, cores, flags), 2).is_none());
        // A core index at or above the core count.
        assert!(rebuild(parts(&tape), 1).is_none());
        // Flags claiming more side entries than the streams hold.
        let (gaps, cores, mut flags) = parts(&tape);
        flags[0] = TapeEvent::new(0, 0, false)
            .with_outcome(Outcome::LlcMiss)
            .flags;
        assert!(rebuild((gaps, cores, flags), 2).is_none());
        // Flags claiming fewer.
        let (gaps, cores, mut flags) = parts(&tape);
        flags[2] = TapeEvent::new(0, 0, false).flags;
        assert!(rebuild((gaps, cores, flags), 2).is_none());
    }

    #[test]
    fn tape_keys_distinguish_every_functional_knob() {
        let base = || {
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Lru,
                0.25,
                false,
                false,
                false,
            )
        };
        assert_eq!(base(), base());
        let mut variants = vec![
            TapeKey::new(
                2,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Lru,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                8,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Lru,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                4 << 20,
                PolicyKind::Lru,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Random,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Srrip,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Drrip,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Ship,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Endurance,
                0.25,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Lru,
                0.0,
                false,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Lru,
                0.25,
                true,
                false,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Lru,
                0.25,
                false,
                true,
                false,
            ),
            TapeKey::new(
                1,
                0xABCD,
                4,
                (32768, 8, 64),
                (262144, 8, 64),
                2 << 20,
                PolicyKind::Lru,
                0.25,
                false,
                false,
                true,
            ),
        ];
        variants.dedup();
        for v in &variants {
            assert_ne!(*v, base());
        }
    }
}
