//! Persistent serialization of simulation artifacts.
//!
//! Bridges the simulator and [`nvm_llc_store`]: derives content
//! addresses for outcome tapes and finished results, and encodes both
//! to the store's bit-exact wire format. Two independent processes
//! evaluating the same trace on the same configuration derive the same
//! keys and bytes, which is what lets a persistent store serve one
//! process's work to the other.
//!
//! ## Key derivation
//!
//! Every key digests three things, in order:
//!
//! 1. a **namespace tag** (`"tape"` or `"result"`), so the two record
//!    kinds can never collide;
//! 2. [`MODEL_VERSION`], bumped whenever the simulator's observable
//!    behavior changes — old records become unreachable rather than
//!    silently wrong;
//! 3. the artifact's identity payload: the trace's
//!    [content hash](nvm_llc_trace::Trace::content_hash) (never the
//!    process-local `uid`) plus either the tape key's functional
//!    geometry ([`TapeKey::persist_bytes`]) or the full system
//!    fingerprint (every timing, energy, and policy knob).
//!
//! Decoding is strict. A payload decodes only when it parses exactly:
//! version-tagged, length-checked by the store's record header, with no
//! trailing or missing bytes. A tape must also be consistent the way a
//! recorded tape is, or replay could index a missing timing lane or run
//! a side cursor dry:
//!
//! * its three event lanes (gap, core, flags) have one length;
//! * every core index is below the tape's core count;
//! * each varint side stream holds exactly its declared number of
//!   well-formed values, ending at the end of its bytes;
//! * the side counts the event flags imply sum exactly to both side
//!   streams' lengths.
//!
//! Anything else — stale, corrupt, or crafted — decodes to `None` and the
//! caller recomputes.

use std::sync::{Arc, Mutex, OnceLock};

use nvm_llc_cell::units::{Joules, Seconds};
use nvm_llc_cell::MemClass;
use nvm_llc_store::wire::{Reader, WireError, Writer};
use nvm_llc_store::{Key, Store};
use nvm_llc_trace::Trace;

use crate::endurance::EnduranceReport;
use crate::result::{SimResult, SimStats};
use crate::system::System;
use crate::tape::{OutcomeTape, PackedBlocks, TapeKey};

/// Version of the simulator's observable model baked into every store
/// key. Bump it whenever a change alters simulation outputs (timing,
/// energy, endurance, functional behavior, or the wire layout below):
/// records written by older code then miss instead of replaying stale
/// results.
///
/// Version history:
/// * 1 — the original functional/timing split keyspace.
/// * 2 — the replacement-policy subsystem: tape keys carry a six-way
///   policy tag ([`crate::policy::PolicyKind::persist_tag`]) and
///   request keys gained a policy axis, so geometry-only keys from
///   version 1 must never alias a policy-keyed record.
/// * 3 — one tape form: tapes persist as their replay lanes (`u32` gap,
///   `u8` core and `u8` flag arrays) instead of packed `u64` records, so
///   a version-2 tape payload must never be read as lanes.
pub const MODEL_VERSION: u32 = 3;

/// Digests `tag | MODEL_VERSION | payload` into a store key.
fn derive_key(tag: &str, payload: &[u8]) -> Key {
    let mut w = Writer::new();
    w.str(tag).u32(MODEL_VERSION).bytes(payload);
    Key::digest(&w.into_bytes())
}

/// Store key of the outcome tape identified by `key`: the functional
/// geometry plus the trace's content hash (the process-local trace uid
/// is deliberately excluded — see [`TapeKey::persist_bytes`]).
pub fn tape_store_key(key: &TapeKey) -> Key {
    derive_key("tape", &key.persist_bytes())
}

/// Store key of the finished [`SimResult`] of running `system` over
/// `trace`.
///
/// The system half of the identity is its `Debug` rendering: `System`
/// is plain data (architecture configuration, replacement policy,
/// warmup fraction, endurance policy), so equal fingerprints mean equal
/// observable behavior. Shortest-round-trip float formatting keeps the
/// rendering injective on every `f64` knob; a formatting change across
/// toolchains would only cause spurious misses, never false hits, and
/// [`MODEL_VERSION`] guards deliberate model changes.
pub fn result_store_key(system: &System, trace: &Trace) -> Key {
    let mut w = Writer::new();
    w.u128(trace.content_hash()).str(&format!("{system:?}"));
    derive_key("result", &w.into_bytes())
}

/// Store-keyspace routing key of one service request, derivable by
/// anything that can see the request line — in particular a router that
/// holds no simulator state. Digests the full request identity
/// (`models` set, workload, optional technology, access count,
/// replacement policy) under its own namespace tag, so the cluster
/// shards the same 128-bit keyspace the persisted artifacts live in:
/// every node and every router derives the same owner for the same
/// request.
pub fn request_key(
    models: &str,
    workload: &str,
    tech: Option<&str>,
    accesses: usize,
    policy: crate::policy::PolicyKind,
) -> Key {
    let mut w = Writer::new();
    w.str(models)
        .str(workload)
        .bool(tech.is_some())
        .str(tech.unwrap_or(""))
        .u64(accesses as u64)
        .u8(policy.persist_tag());
    derive_key("route", &w.into_bytes())
}

fn encode_stats(w: &mut Writer, s: &SimStats) {
    w.u64(s.instructions)
        .u64(s.accesses)
        .u64(s.l1d_hits)
        .u64(s.l1d_misses)
        .u64(s.l2_hits)
        .u64(s.l2_misses)
        .u64(s.llc_hits)
        .u64(s.llc_misses)
        .u64(s.llc_writes)
        .u64(s.llc_fills)
        .u64(s.dram_writebacks)
        .u64(s.llc_port_stall_cycles)
        .u64(s.dram_row_hits)
        .u64(s.dram_row_conflicts)
        .u64(s.dram_queue_cycles)
        .u64(s.llc_bypassed_fills)
        .u64(s.prefetches)
        .u64(s.inclusion_invalidations);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<SimStats, WireError> {
    Ok(SimStats {
        instructions: r.u64()?,
        accesses: r.u64()?,
        l1d_hits: r.u64()?,
        l1d_misses: r.u64()?,
        l2_hits: r.u64()?,
        l2_misses: r.u64()?,
        llc_hits: r.u64()?,
        llc_misses: r.u64()?,
        llc_writes: r.u64()?,
        llc_fills: r.u64()?,
        dram_writebacks: r.u64()?,
        llc_port_stall_cycles: r.u64()?,
        dram_row_hits: r.u64()?,
        dram_row_conflicts: r.u64()?,
        dram_queue_cycles: r.u64()?,
        llc_bypassed_fills: r.u64()?,
        prefetches: r.u64()?,
        inclusion_invalidations: r.u64()?,
    })
}

fn class_to_u8(class: MemClass) -> u8 {
    match class {
        MemClass::Sram => 0,
        MemClass::Pcram => 1,
        MemClass::Sttram => 2,
        MemClass::Rram => 3,
    }
}

fn class_from_u8(v: u8) -> Result<MemClass, WireError> {
    match v {
        0 => Ok(MemClass::Sram),
        1 => Ok(MemClass::Pcram),
        2 => Ok(MemClass::Sttram),
        3 => Ok(MemClass::Rram),
        _ => Err(WireError),
    }
}

/// Encodes a finished result for the store. Floats travel as raw bits,
/// so a decoded result is bit-identical to the computed one.
pub fn encode_result(result: &SimResult) -> Vec<u8> {
    let mut w = Writer::new();
    w.str(&result.llc_name)
        .f64(result.exec_time.value())
        .f64(result.llc_dynamic_energy.value())
        .f64(result.llc_leakage_energy.value())
        .bool(result.endurance.is_some());
    if let Some(e) = &result.endurance {
        w.u8(class_to_u8(e.class))
            .u64(e.total_writes)
            .u64(e.max_set_writes)
            .f64(e.mean_set_writes)
            .f64(e.worst_cell_write_rate_hz)
            .f64(e.lifetime_years);
    }
    encode_stats(&mut w, &result.stats);
    w.into_bytes()
}

/// Decodes a result payload, or `None` when it does not parse exactly
/// (truncated, malformed, or trailing bytes) — the caller recomputes.
pub fn decode_result(payload: &[u8]) -> Option<SimResult> {
    fn parse(r: &mut Reader<'_>) -> Result<SimResult, WireError> {
        let llc_name = r.str()?.to_owned();
        let exec_time = Seconds::new(r.f64()?);
        let llc_dynamic_energy = Joules::new(r.f64()?);
        let llc_leakage_energy = Joules::new(r.f64()?);
        let endurance = if r.bool()? {
            Some(EnduranceReport {
                class: class_from_u8(r.u8()?)?,
                total_writes: r.u64()?,
                max_set_writes: r.u64()?,
                mean_set_writes: r.f64()?,
                worst_cell_write_rate_hz: r.f64()?,
                lifetime_years: r.f64()?,
            })
        } else {
            None
        };
        let stats = decode_stats(r)?;
        Ok(SimResult {
            llc_name,
            exec_time,
            llc_dynamic_energy,
            llc_leakage_energy,
            endurance,
            stats,
        })
    }
    let mut r = Reader::new(payload);
    let result = parse(&mut r).ok()?;
    r.is_exhausted().then_some(result)
}

fn encode_packed(w: &mut Writer, blocks: &PackedBlocks) {
    let (bytes, len, last) = blocks.parts();
    w.bytes(bytes).u64(len as u64).u64(last);
}

fn decode_packed(r: &mut Reader<'_>) -> Option<PackedBlocks> {
    let bytes = r.bytes().ok()?.to_vec();
    let len = usize::try_from(r.u64().ok()?).ok()?;
    let last = r.u64().ok()?;
    PackedBlocks::from_parts(bytes, len, last)
}

/// Encodes an outcome tape for the store: core count, the three event
/// lanes verbatim (one bulk copy each), both varint/delta side streams
/// in their encoded form, and the functional counters.
pub fn encode_tape(tape: &OutcomeTape) -> Vec<u8> {
    let (gaps, cores, flags) = tape.lanes();
    let mut w = Writer::new();
    w.u32(tape.cores()).u32s(gaps).bytes(cores).bytes(flags);
    let (endurance, dram) = tape.packed_streams();
    encode_packed(&mut w, endurance);
    encode_packed(&mut w, dram);
    encode_stats(&mut w, tape.stats());
    w.into_bytes()
}

/// Decodes a tape payload, or `None` when it does not parse exactly or
/// is inconsistent (see the module docs) — the caller falls back to
/// re-recording the functional pass.
pub fn decode_tape(payload: &[u8]) -> Option<OutcomeTape> {
    let mut r = Reader::new(payload);
    let cores = r.u32().ok()?;
    let lanes = (
        r.u32s().ok()?,
        r.bytes().ok()?.to_vec(),
        r.bytes().ok()?.to_vec(),
    );
    let endurance_blocks = decode_packed(&mut r)?;
    let dram_blocks = decode_packed(&mut r)?;
    let stats = decode_stats(&mut r).ok()?;
    if !r.is_exhausted() {
        return None;
    }
    OutcomeTape::from_parts(lanes, endurance_blocks, dram_blocks, stats, cores)
}

fn global() -> &'static Mutex<Option<Arc<Store>>> {
    static GLOBAL: OnceLock<Mutex<Option<Arc<Store>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Installs (or clears, with `None`) the process-wide persistent store.
/// Evaluators built without an explicit store pick this one up — the
/// CLI's `--store-dir` flag routes through here so every evaluation in
/// the process shares one store.
pub fn set_global_store(store: Option<Arc<Store>>) {
    *global().lock().expect("global store lock") = store;
}

/// The process-wide persistent store, if one is installed.
pub fn global_store() -> Option<Arc<Store>> {
    global().lock().expect("global store lock").clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use crate::endurance::WearPolicy;
    use nvm_llc_trace::workloads;

    fn sample_system() -> System {
        let llc = nvm_llc_circuit::reference::sram_baseline();
        System::new(ArchConfig::gainestown(llc))
            .with_warmup(0.25)
            .with_endurance_tracking(WearPolicy::None)
    }

    fn sample_trace() -> std::sync::Arc<Trace> {
        workloads::by_name("tonto")
            .unwrap()
            .generate_shared(7, 1_500)
    }

    #[test]
    fn result_round_trips_bit_exactly() {
        let system = sample_system();
        let trace = sample_trace();
        let result = system.run(&trace);
        assert!(result.endurance.is_some(), "endurance tracking was on");
        let decoded = decode_result(&encode_result(&result)).unwrap();
        assert_eq!(decoded, result);
        assert_eq!(
            decoded.exec_time.value().to_bits(),
            result.exec_time.value().to_bits(),
        );
    }

    #[test]
    fn result_without_endurance_round_trips() {
        let llc = nvm_llc_circuit::reference::sram_baseline();
        let system = System::new(ArchConfig::gainestown(llc));
        let result = system.run(&sample_trace());
        assert!(result.endurance.is_none());
        assert_eq!(decode_result(&encode_result(&result)).unwrap(), result);
    }

    #[test]
    fn result_decode_rejects_damage() {
        let result = sample_system().run(&sample_trace());
        let bytes = encode_result(&result);
        // Truncation and trailing garbage both fail cleanly.
        assert!(decode_result(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_result(&padded).is_none());
        assert!(decode_result(&[]).is_none());
    }

    #[test]
    fn tape_round_trip_replays_identically() {
        let system = sample_system();
        let trace = sample_trace();
        let tape = system.record(&trace);
        let decoded = decode_tape(&encode_tape(&tape)).unwrap();
        assert_eq!(decoded.cores(), tape.cores());
        assert_eq!(decoded.stats(), tape.stats());
        assert_eq!(decoded.len(), tape.len());
        assert!(decoded.events().eq(tape.events()));
        assert!(decoded.endurance_blocks().eq(tape.endurance_blocks()));
        assert!(decoded.dram_blocks().eq(tape.dram_blocks()));
        // The decisive check: replaying the decoded tape reproduces the
        // original run bit for bit.
        assert_eq!(system.replay(&decoded), system.run(&trace));
    }

    #[test]
    fn tape_decode_rejects_damage() {
        let tape = sample_system().record(&sample_trace());
        let bytes = encode_tape(&tape);
        assert!(decode_tape(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_tape(&padded).is_none());
        assert!(decode_tape(&[]).is_none());
    }

    /// Byte offsets of the core and flag lanes in an encoded tape of `n`
    /// events: the core count (4), the gap lane's count prefix (8) and
    /// its `n` `u32`s, then each byte lane's length prefix (8).
    fn lane_offsets(n: usize) -> (usize, usize) {
        let cores_at = 4 + 8 + 4 * n + 8;
        (cores_at, cores_at + n + 8)
    }

    /// Records a tape of a trace no other test records (`seed`), crafts
    /// its encoding, and checks that evaluating through a store holding
    /// the crafted payload recomputes the tape instead of replaying the
    /// payload. Returns the crafted payload.
    fn crafted_payload_is_recomputed(
        name: &str,
        seed: u64,
        craft: impl Fn(&mut [u8], usize),
    ) -> Vec<u8> {
        let system = sample_system();
        let trace = workloads::by_name("tonto")
            .unwrap()
            .generate_shared(seed, 1_200);
        let tape = system.record(&trace);
        let mut bytes = encode_tape(&tape);
        craft(&mut bytes, tape.len());

        let dir =
            std::env::temp_dir().join(format!("nvm-llc-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        store
            .put(&tape_store_key(&system.tape_key(&trace)), &bytes)
            .unwrap();
        let fetched = crate::tape::cache::fetch_with_store(&system, &trace, Some(&store));
        assert!(fetched.events().eq(tape.events()), "{name}: not recomputed");
        assert_eq!(system.replay(&fetched), system.run(&trace), "{name}");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    #[test]
    fn tape_decode_rejects_side_counts_that_miss_the_streams() {
        // Every event flagged an LLC read miss: each would claim a DRAM
        // stream entry the stream does not hold.
        let bytes = crafted_payload_is_recomputed("all-llc-misses", 0xBAD1, |bytes, n| {
            let (_, flags_at) = lane_offsets(n);
            let miss = crate::tape::TapeEvent::new(0, 0, false)
                .with_outcome(crate::tape::Outcome::LlcMiss)
                .flags;
            bytes[flags_at..flags_at + n].fill(miss);
        });
        assert!(decode_tape(&bytes).is_none());
    }

    #[test]
    fn tape_decode_rejects_out_of_range_cores() {
        // Event 0 on core 200 of a four-core tape.
        let bytes = crafted_payload_is_recomputed("core-200", 0xBAD2, |bytes, n| {
            let (cores_at, _) = lane_offsets(n);
            bytes[cores_at] = 200;
        });
        assert!(decode_tape(&bytes).is_none());
    }

    #[test]
    fn stored_tape_for_another_core_count_is_recomputed() {
        // A self-consistent payload claiming eight cores, stored under a
        // four-core system's key: it decodes, but the fetch must not hand
        // it to a replay that would reject the core count.
        let bytes = crafted_payload_is_recomputed("eight-cores", 0xBAD3, |bytes, _| {
            bytes[..4].copy_from_slice(&8u32.to_le_bytes());
        });
        assert_eq!(decode_tape(&bytes).map(|tape| tape.cores()), Some(8));
    }

    #[test]
    fn keys_are_content_derived_not_process_local() {
        let system = sample_system();
        // Two separately built traces with identical events: distinct
        // uids, identical persistent keys.
        let a = sample_trace();
        let b = workloads::by_name("tonto")
            .unwrap()
            .generate_shared(7, 1_500);
        assert_eq!(
            tape_store_key(&system.tape_key(&a)),
            tape_store_key(&system.tape_key(&b)),
        );
        assert_eq!(result_store_key(&system, &a), result_store_key(&system, &b));
        // Any knob the result depends on moves the result key.
        let warmer = sample_system().with_warmup(0.5);
        assert_ne!(result_store_key(&system, &a), result_store_key(&warmer, &a),);
        // Tape and result namespaces never collide.
        assert_ne!(
            tape_store_key(&system.tape_key(&a)).hex(),
            result_store_key(&system, &a).hex(),
        );
    }

    #[test]
    fn request_keys_separate_every_identity_axis() {
        use crate::policy::PolicyKind;
        let base = request_key("fixed_capacity", "tonto", None, 20_000, PolicyKind::Lru);
        assert_eq!(
            base,
            request_key("fixed_capacity", "tonto", None, 20_000, PolicyKind::Lru),
            "same request, same key, any process"
        );
        for other in [
            request_key("fixed_area", "tonto", None, 20_000, PolicyKind::Lru),
            request_key("fixed_capacity", "x264", None, 20_000, PolicyKind::Lru),
            request_key(
                "fixed_capacity",
                "tonto",
                Some("Jan"),
                20_000,
                PolicyKind::Lru,
            ),
            request_key("fixed_capacity", "tonto", None, 40_000, PolicyKind::Lru),
            request_key("fixed_capacity", "tonto", None, 20_000, PolicyKind::Srrip),
        ] {
            assert_ne!(base, other);
        }
        // Every policy routes to its own key.
        let keys: Vec<_> = PolicyKind::ALL
            .iter()
            .map(|&p| request_key("fixed_capacity", "tonto", None, 20_000, p))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // A row and a cell whose tech string is empty stay distinct.
        assert_ne!(
            request_key("fixed_capacity", "tonto", None, 20_000, PolicyKind::Lru),
            request_key("fixed_capacity", "tonto", Some(""), 20_000, PolicyKind::Lru),
        );
    }

    /// Golden-key regression pin: the persistent key derivation for one
    /// fixed (trace, system, policy) triple, frozen at `MODEL_VERSION`
    /// 3. If any of these hex digests move, either the key derivation
    /// changed by accident (fix the code) or the observable model
    /// changed on purpose (bump `MODEL_VERSION` and re-pin here).
    #[test]
    fn golden_keys_pin_model_version_3_derivation() {
        use crate::policy::PolicyKind;
        let trace = sample_trace();
        let system = sample_system().with_replacement(PolicyKind::Srrip);
        let tape_key = tape_store_key(&system.tape_key(&trace)).hex();
        let result_key = result_store_key(&system, &trace).hex();
        let route_key = request_key(
            "fixed_capacity",
            "tonto",
            Some("Jan"),
            1_500,
            PolicyKind::Srrip,
        )
        .hex();
        let got = format!("tape={tape_key} result={result_key} route={route_key}");
        let want = "tape=dfaa846633b9f1c5183f2edfe36b9512 \
                    result=6224ea6f7f5995617b3153ca7e26d192 \
                    route=ae78831ac9c63c025e2a44a03e364aea";
        assert_eq!(got, want, "persistent key derivation moved");
    }

    #[test]
    fn global_store_installs_and_clears() {
        // Serialize against other tests touching the global (none today,
        // but the lock makes the invariant local).
        let dir = std::env::temp_dir().join(format!(
            "nvm-llc-persist-test-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos(),
        ));
        let store = Arc::new(Store::open(&dir).unwrap());
        set_global_store(Some(Arc::clone(&store)));
        assert!(global_store().is_some());
        set_global_store(None);
        assert!(global_store().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
