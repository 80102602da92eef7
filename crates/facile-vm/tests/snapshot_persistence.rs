//! Action-cache persistence: `facile-snap/v1` round-trips, validity
//! rejection, and copy-on-write sharing (see `docs/PERSISTENCE.md`).
//!
//! The contract under test is fail-safe warm-starting: a valid snapshot
//! makes a run start fast (replay from step 0, no recording warm-up)
//! with bit-identical architectural results; an invalid snapshot of
//! *any* kind is rejected cleanly and the run proceeds cold — also with
//! bit-identical results.

use facile_codegen::{compile, CodegenConfig};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::key::hash_bytes;
use facile_runtime::{Image, Rng, Target};
use facile_sema::analyze as sema;
use facile_vm::engine::{ArgValue, SimOptions, Simulation};
use facile_vm::snapshot::{self, SnapshotError, HEADER_LEN};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A branchy looping simulator: INDEX actions chain the steps, the
/// verified external forks TEST successors, memory and the trace carry
/// dynamic state. Everything persistence must preserve.
const BRANCHY: &str = "ext fun flip(salt : int) : int;
    fun main(x : int) {
      count_insns(1);
      val t = flip(x)?verify;
      trace(t);
      count_cycles(t + 1);
      val c = mem_ld(0);
      mem_st(0, c + 1);
      if (c >= 150) { sim_halt(); }
      next((x + t + 1) % 7);
    }";

fn build(src: &str) -> facile_codegen::CompiledStep {
    let mut diags = Diagnostics::new();
    let prog = parse(src, &mut diags);
    let syms = sema(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(src));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
}

fn branchy_sim(opts: SimOptions) -> Simulation {
    sim_of(Arc::new(build(BRANCHY)), &[ArgValue::Scalar(0)], opts)
}

fn sim_of(
    step: Arc<facile_codegen::CompiledStep>,
    args: &[ArgValue],
    opts: SimOptions,
) -> Simulation {
    let mut s = Simulation::new(step, Target::load(&Image::default()), args, opts).unwrap();
    // Deterministic outcome sequence keyed on the argument only, so
    // replay and re-execution agree (wrapping: a mutated snapshot can
    // hand it any value).
    s.bind_external("flip", move |args| {
        args[0].wrapping_mul(31).wrapping_add(7) % 3
    })
    .unwrap();
    s
}

/// The observable end state that must be bit-identical across cold,
/// warm, and rejected-snapshot runs.
fn fingerprint(s: &Simulation) -> (Option<facile_runtime::HaltReason>, u64, u64, Vec<i64>, u64) {
    (
        s.halted(),
        s.stats().cycles,
        s.stats().insns,
        s.trace().to_vec(),
        s.memory().digest(),
    )
}

fn recorded_snapshot() -> Vec<u8> {
    let mut cold = branchy_sim(SimOptions::default());
    cold.run_steps(100_000);
    assert!(cold.halted().is_some(), "cold run must finish");
    snapshot::save(&cold)
}

#[test]
fn warm_run_matches_cold_run_exactly_and_skips_recording() {
    let mut cold = branchy_sim(SimOptions::default());
    cold.run_steps(100_000);
    let bytes = snapshot::save(&cold);

    let mut warm = branchy_sim(SimOptions::default());
    let snap = snapshot::parse(&bytes).expect("well-formed snapshot");
    snap.validate(&warm).expect("same program, same target");
    warm.warm_start(snap.image()).unwrap();
    warm.run_steps(100_000);

    assert_eq!(fingerprint(&warm), fingerprint(&cold));
    // The whole point: the recorded graph replays from step 0.
    assert_eq!(warm.stats().slow_steps, 0, "warm run should never record");
    assert_eq!(warm.cache_stats().nodes_created, 0);
    assert!(warm.cache_stats().bytes_frozen > 0);
    assert_eq!(
        warm.cache_stats().bytes_frozen,
        bytes.len() as u64 - HEADER_LEN as u64,
        "bytes_frozen reports the serialized payload size"
    );
}

#[test]
fn refrozen_snapshot_is_stable() {
    // freeze → encode → parse → freeze must converge: saving a
    // warm-started run that recorded nothing new yields an equivalent
    // snapshot (same graph shape; byte equality is not promised because
    // export order is canonicalized only after the first freeze).
    let bytes = recorded_snapshot();
    let snap = snapshot::parse(&bytes).unwrap();

    let mut warm = branchy_sim(SimOptions::default());
    warm.warm_start(snap.image()).unwrap();
    warm.run_steps(100_000);
    let bytes2 = snapshot::save(&warm);
    let snap2 = snapshot::parse(&bytes2).unwrap();
    assert_eq!(
        snap2.image().node_count(),
        snap.image().node_count(),
        "pure replay must not grow the graph"
    );
    assert_eq!(snap2.image().entry_count(), snap.image().entry_count());
}

#[test]
fn every_header_field_gates_the_load() {
    let bytes = recorded_snapshot();
    let sim = branchy_sim(SimOptions::default());

    // Parse-time rejections: magic, version, header length, policy
    // byte, reserved bytes, checksum, truncation.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(snapshot::parse(&bad), Err(SnapshotError::BadMagic)));

    let mut bad = bytes.clone();
    bad[8] = 9; // version
    assert!(matches!(
        snapshot::parse(&bad),
        Err(SnapshotError::BadVersion(9))
    ));

    let mut bad = bytes.clone();
    bad[12] = 63; // header_len
    assert!(matches!(
        snapshot::parse(&bad),
        Err(SnapshotError::BadHeader(_))
    ));

    let mut bad = bytes.clone();
    bad[40] = 7; // policy byte
    assert!(matches!(
        snapshot::parse(&bad),
        Err(SnapshotError::BadHeader(_))
    ));

    let mut bad = bytes.clone();
    bad[41] = 1; // reserved must be zero
    assert!(matches!(
        snapshot::parse(&bad),
        Err(SnapshotError::BadHeader(_))
    ));

    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x01; // payload bit flip → checksum
    assert!(matches!(snapshot::parse(&bad), Err(SnapshotError::Corrupt(_))));

    let mut bad = bytes.clone();
    bad[56] ^= 0x01; // stored checksum itself
    assert!(matches!(snapshot::parse(&bad), Err(SnapshotError::Corrupt(_))));

    let bad = &bytes[..bytes.len() - 9]; // truncated slab/payload
    assert!(matches!(snapshot::parse(bad), Err(SnapshotError::Corrupt(_))));

    let bad = &bytes[..HEADER_LEN as usize / 2]; // truncated header
    assert!(snapshot::parse(bad).is_err());

    // Validate-time rejections: digest, fingerprint, capacity, policy.
    let mut bad = bytes.clone();
    bad[16] ^= 0xFF; // target digest — rewrite checksum? No: digest is
                     // in the header, outside the payload checksum.
    assert!(matches!(
        snapshot::parse(&bad).unwrap().validate(&sim),
        Err(SnapshotError::DigestMismatch { .. })
    ));

    let mut bad = bytes.clone();
    bad[24] ^= 0xFF; // step fingerprint
    assert!(matches!(
        snapshot::parse(&bad).unwrap().validate(&sim),
        Err(SnapshotError::FingerprintMismatch)
    ));

    let mut bad = bytes.clone();
    bad[32] ^= 0xFF; // capacity
    assert!(matches!(
        snapshot::parse(&bad).unwrap().validate(&sim),
        Err(SnapshotError::CapacityMismatch)
    ));

    // Policy mismatch: a valid Generational header against a Clear sim.
    let gen_sim = branchy_sim(SimOptions {
        cache_policy: facile_runtime::CachePolicy::Generational,
        ..SimOptions::default()
    });
    let snap = snapshot::parse(&bytes).unwrap();
    assert!(matches!(
        snap.validate(&gen_sim),
        Err(SnapshotError::PolicyMismatch)
    ));

    // And the good bytes still pass: the rejections above were the
    // mutations' doing, not parser pickiness.
    snapshot::parse(&bytes).unwrap().validate(&sim).unwrap();
}

#[test]
fn rejected_snapshot_leaves_a_bit_identical_cold_run() {
    // The CLI's fallback contract, checked at the library level: after
    // any rejection the simulation is untouched and a cold run over it
    // matches a never-offered-a-snapshot run exactly.
    let mut control = branchy_sim(SimOptions::default());
    control.run_steps(100_000);

    let mut bytes = recorded_snapshot();
    bytes[16] ^= 0xFF; // digest mismatch
    let mut s = branchy_sim(SimOptions::default());
    let snap = snapshot::parse(&bytes).unwrap();
    assert!(snap.validate(&s).is_err());
    // Caller declines to warm-start; run proceeds cold.
    s.run_steps(100_000);
    assert_eq!(fingerprint(&s), fingerprint(&control));
    assert_eq!(s.cache_stats().bytes_frozen, 0);
}

#[test]
fn warm_start_guards_are_enforced() {
    let bytes = recorded_snapshot();
    let snap = snapshot::parse(&bytes).unwrap();

    // Already ran.
    let mut s = branchy_sim(SimOptions::default());
    s.run_steps(5);
    assert!(s.warm_start(snap.image()).is_err());

    // Memoization disabled.
    let mut s = branchy_sim(SimOptions {
        memoize: false,
        ..SimOptions::default()
    });
    assert!(s.warm_start(snap.image()).is_err());

    // Double install.
    let mut s = branchy_sim(SimOptions::default());
    s.warm_start(snap.image()).unwrap();
    assert!(s.warm_start(snap.image()).is_err());
}

#[test]
fn lanes_share_one_image_copy_on_write_across_threads() {
    // Batch sharing: one parsed snapshot, N threads, each lane
    // warm-starts from the same `Arc` and records privately on top.
    // Lanes run *different* argument streams, so each one records new
    // successor links the others must never observe. (The outcome
    // stream is mod-3, so only lanes 0..3 are pairwise distinct.)
    let bytes = recorded_snapshot();
    let snap = snapshot::parse(&bytes).unwrap();
    let base_nodes = snap.image().node_count();

    let mut handles = Vec::new();
    for lane in 0..3i64 {
        let image = snap.image();
        handles.push(std::thread::spawn(move || {
            let step = build(BRANCHY);
            let mut s = Simulation::new(
                step,
                Target::load(&Image::default()),
                &[ArgValue::Scalar(0)],
                SimOptions::default(),
            )
            .unwrap();
            // Per-lane outcome stream: lane 0 matches the recording,
            // others diverge and must recover + record COW links.
            s.bind_external("flip", move |args| (args[0] * 31 + 7 + lane) % 3)
                .unwrap();
            s.warm_start(image).unwrap();
            s.run_steps(100_000);
            // Each lane, cold, for the ground truth.
            let step = build(BRANCHY);
            let mut cold = Simulation::new(
                step,
                Target::load(&Image::default()),
                &[ArgValue::Scalar(0)],
                SimOptions::default(),
            )
            .unwrap();
            cold.bind_external("flip", move |args| (args[0] * 31 + 7 + lane) % 3)
                .unwrap();
            cold.run_steps(100_000);
            assert_eq!(
                fingerprint(&s),
                fingerprint(&cold),
                "lane {lane}: warm-shared run must match its own cold run"
            );
            (lane, s.stats().slow_steps)
        }));
    }
    let mut results: Vec<(i64, u64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    results.sort_unstable();
    // Lane 0 replays the recording verbatim; diverging lanes record.
    assert_eq!(results[0].1, 0, "matching lane is pure replay");
    assert!(
        results[1..].iter().all(|&(_, slow)| slow > 0),
        "diverging lanes must fall back to recording"
    );
    // The shared image itself never grew.
    assert_eq!(snap.image().node_count(), base_nodes);
}

// ---- hostile payloads ---------------------------------------------------

/// Byte offset of the payload checksum in the header.
const CHECKSUM_AT: usize = 56;

/// Re-stamps the payload checksum, so a mutation reaches the decoder's
/// structural checks and `validate`'s per-action checks instead of
/// stopping at the checksum.
fn reseal(bytes: &mut [u8]) {
    let crc = hash_bytes(&bytes[HEADER_LEN as usize..]);
    bytes[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&crc.to_le_bytes());
}

/// What a payload field holds, for targeted mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Field {
    DataLen,
    /// A one-byte successor tag.
    SuccTag,
    /// Any other `u32` field: sequence numbers, action numbers, data
    /// offsets, list counts, link targets, signature ranges.
    Word,
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// The offsets of a payload's mutable fields, found by walking its
/// segments as docs/PERSISTENCE.md lays them out.
fn fields(bytes: &[u8]) -> Vec<(usize, Field)> {
    let word = |at| (at, Field::Word);
    let mut out = Vec::new();
    let mut at = HEADER_LEN as usize;
    for _ in 0..u32_at(bytes, 48) {
        let (nodes, slab) = (u32_at(bytes, at + 4), u32_at(bytes, at + 8) as usize);
        out.push(word(at));
        at += 12 + 8 * slab;
        for _ in 0..nodes {
            out.extend([word(at), word(at + 4), (at + 8, Field::DataLen)]);
            at += 12;
        }
        for _ in 0..nodes {
            out.push((at, Field::SuccTag));
            at += 1;
            match bytes[at - 1] {
                0 => {}
                1 => {
                    out.extend([word(at), word(at + 4)]);
                    at += 8;
                }
                _ => {
                    let count = u32_at(bytes, at);
                    out.push(word(at));
                    at += 4;
                    for _ in 0..count {
                        out.extend([word(at), word(at + 4), word(at + 8), word(at + 12)]);
                        at += 16;
                    }
                }
            }
        }
    }
    out
}

#[test]
fn nodes_that_do_not_fit_their_action_are_rejected() {
    // A checksum guards the payload against accidents, not against a
    // writer that recomputes it. Shortening a node's data by one value
    // still decodes (the range stays inside the slab), and so does
    // retagging test links as INDEX links (the records are the same
    // size); replaying either would index past the data or dispatch a
    // link kind the action never records. Both must be refused.
    let bytes = recorded_snapshot();
    let sim = branchy_sim(SimOptions::default());
    let mutate = |at: usize, new: &[u8]| {
        let mut bad = bytes.clone();
        bad[at..at + new.len()].copy_from_slice(new);
        reseal(&mut bad);
        let verdict = snapshot::parse(&bad).and_then(|snap| snap.validate(&sim));
        assert!(
            matches!(verdict, Err(SnapshotError::Corrupt(_))),
            "mutation at byte {at} was accepted"
        );
    };
    let fields = fields(&bytes);
    let mut cases = 0;
    for &(at, field) in &fields {
        match field {
            Field::DataLen if u32_at(&bytes, at) > 0 => {
                mutate(at, &(u32_at(&bytes, at) - 1).to_le_bytes())
            }
            Field::SuccTag if bytes[at] == 2 => mutate(at, &[3]),
            _ => continue,
        }
        cases += 1;
    }
    assert!(
        cases > 10,
        "the snapshot has data-carrying nodes and test links"
    );
}

/// BRANCHY keyed by a queue as well: every INDEX node's data carries
/// the queue as a length-prefixed run.
const QUEUED: &str = "ext fun flip(salt : int) : int;
    fun main(iq : queue, x : int) {
      iq?push_back(x);
      if (iq?len > 2) { iq?pop_front(); }
      count_insns(1);
      val t = flip(x)?verify;
      count_cycles(t + iq?len);
      val c = mem_ld(0);
      mem_st(0, c + 1);
      if (c >= 150) { sim_halt(); }
      next(iq, (x + t + 1) % 7);
    }";

/// Runs one seeded hostile-payload sweep over a snapshot of `src`'s cold
/// run; returns how many cases were rejected, halted and hit the bound.
fn sweep(src: &str, args: &[ArgValue], seed: u64) -> (usize, usize, usize) {
    const CASES: usize = 1_000;
    const STEP_BOUND: u64 = 2_000;
    let step = Arc::new(build(src));
    let mut cold = sim_of(Arc::clone(&step), args, SimOptions::default());
    assert!(cold.run_steps(100_000).is_some(), "cold run must finish");
    let bytes = snapshot::save(&cold);
    let fields = fields(&bytes);
    let mut rng = Rng::new(seed);
    let (mut rejected, mut halted, mut bounded) = (0, 0, 0);
    for case in 0..CASES {
        let mut bad = bytes.clone();
        for _ in 0..=rng.below(2) {
            if rng.chance(2, 3) {
                let &(at, field) = rng.pick(&fields);
                let width = if field == Field::SuccTag { 1 } else { 4 };
                let mut old = [0u8; 4];
                old[..width].copy_from_slice(&bad[at..at + width]);
                let old = u32::from_le_bytes(old);
                let new = match rng.below(4) {
                    0 => old.wrapping_add(1),
                    1 => old.wrapping_sub(1),
                    2 => rng.below(16) as u32,
                    _ => rng.next_u64() as u32,
                };
                bad[at..at + width].copy_from_slice(&new.to_le_bytes()[..width]);
            } else {
                let at = HEADER_LEN as usize + rng.index(bad.len() - HEADER_LEN as usize);
                bad[at] ^= 1 << rng.below(8);
            }
        }
        reseal(&mut bad);
        let mut sim = sim_of(Arc::clone(&step), args, SimOptions::default());
        let snap = match snapshot::parse(&bad).and_then(|s| s.validate(&sim).map(|()| s)) {
            Ok(snap) => snap,
            Err(_) => {
                rejected += 1;
                continue;
            }
        };
        sim.warm_start(snap.image())
            .expect("a validated snapshot installs");
        match catch_unwind(AssertUnwindSafe(|| sim.run_steps(STEP_BOUND))) {
            Ok(Some(_)) => halted += 1,
            Ok(None) => bounded += 1,
            Err(_) => panic!("case {case}: an accepted snapshot panicked the simulation"),
        }
    }
    (rejected, halted, bounded)
}

#[test]
fn mutated_payloads_are_rejected_or_run_without_panicking() {
    // Seeded sweeps over payload mutations, checksum re-stamped each
    // time: targeted field rewrites (off by one, small, random) and
    // random bit flips anywhere in the payload. Every case must be
    // rejected with a `SnapshotError`, or be accepted and run without a
    // panic to a halt (a structured fault included) or to the step
    // bound. An accepted case need not match the cold run: placeholder
    // values are data, and only the checksum guards them.
    let queued = [ArgValue::Queue(vec![]), ArgValue::Scalar(0)];
    for (src, args, seed) in [
        (BRANCHY, &[ArgValue::Scalar(0)][..], 0x5EED_5A4D),
        (QUEUED, &queued[..], 0x5EED_0E0E),
    ] {
        let (rejected, halted, bounded) = sweep(src, args, seed);
        eprintln!("{rejected} rejected, {halted} halted, {bounded} at the step bound");
        assert!(
            rejected > 0 && halted > 0,
            "the sweep must exercise both outcomes ({rejected} rejected, {halted} halted, \
             {bounded} at the step bound)"
        );
    }
}
