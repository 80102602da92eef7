//! The slow/complete simulator (paper Figure 10) and its recovery mode.
//!
//! One interpreter core runs the step function's pre-decoded
//! [`SlowProgram`] in three modes, monomorphized by a const generic so
//! each mode's loop carries only its own instrumentation:
//!
//! * *plain* — the paper's "without memoization" simulator (fac−): no
//!   recording, and `next(...)` writes its arguments straight into
//!   `main`'s parameters (a staged parallel move) without building a key.
//! * *record* — the instrumented slow engine: `memoize_action_number`
//!   at every action start, `memoize_static_data` for run-time-static
//!   operands, `memoize_dynamic_result` at dynamic result tests, and the
//!   INDEX record at `next(...)`, whose key is built in a reused buffer.
//! * *recover* — miss recovery, the slow engine with its dynamic
//!   statements compiled out (§6.3, optimization 2): it runs on a shadow
//!   store, skips dynamic ops, steers dynamic tests with the recovery
//!   stack and stops at the miss point (see [`crate::recovery`]).
//!
//! Arithmetic delegates to `facile_ir::lower::{eval_binop, eval_unop}`,
//! so constant folding, both engines and every mode agree bit for bit.

use crate::fast::Replayed;
use crate::recovery::RecoveryErrorKind;
use crate::state::{copy_agg, AggStorage, Frame, MachineState, World};
use facile_codegen::slow::{Memo, NextArg, NextPlan, Param, NO_ACTION, NO_REC};
use facile_codegen::{SOp, SlowProgram};
use facile_ir::ir::{BinOp, QueueOp, UnOp};
use facile_ir::lower::{eval_binop, eval_unop};
use facile_obs::{EngineTag, TraceEvent};
use facile_runtime::cache::{ActionCache, Cursor};
use facile_runtime::key::{Key, KeyReader, KeyWriter};
use facile_runtime::HaltReason;

/// Mode: execute without recording (memoization off).
pub(crate) const PLAIN: u8 = 0;
/// Mode: execute and record into the action cache.
pub(crate) const RECORD: u8 = 1;
/// Mode: re-execute the run-time-static slice on a shadow store.
pub(crate) const RECOVER: u8 = 2;

/// Reusable buffers of the slow engine, owned by the driver so that
/// steady-state slow steps allocate nothing once the buffers are warm.
#[derive(Default)]
pub(crate) struct SlowScratch {
    /// Placeholder data of the open action group (the cache copies it
    /// into its slab on record).
    group: Vec<i64>,
    /// The dynamic INDEX signature of the step being recorded.
    sig: Vec<i64>,
    /// The next step's key, built by a recording `next(...)`.
    pub(crate) key: KeyWriter,
    /// External-call argument staging.
    ext_args: Vec<i64>,
    /// `next(...)` values staged before any parameter is written.
    stage: Vec<i64>,
    /// Queue contents decoded from a key.
    pub(crate) vals: Vec<i64>,
}

/// How a run of the core ended.
pub(crate) enum Exit {
    /// The step ended with `next(...)`: `main`'s parameters hold the next
    /// step's arguments and, when recording, the scratch's `key` its key.
    Next,
    /// The simulation stopped (reason in the machine state).
    Halted,
    /// Recovery reached the miss point: the end of `action`. Slow
    /// execution resumes at `pc` once the shadow is committed.
    Resume {
        /// Resume pc.
        pc: u32,
        /// The miss action.
        action: u32,
    },
    /// The recovery stack disagrees with the program.
    Fault {
        /// What went wrong.
        kind: RecoveryErrorKind,
        /// The action being consumed.
        action: u32,
    },
}

/// Recording hooks: the cache and where the next node links.
pub(crate) struct Recorder<'a> {
    /// The specialized action cache.
    pub cache: &'a mut ActionCache,
    /// Where the next node links.
    pub cursor: &'a mut Cursor,
}

/// Runs one slow step of the real state from `pc` (0 is the step entry):
/// recording when `rec` is given, plain otherwise. Returns
/// [`Exit::Next`] or [`Exit::Halted`].
pub(crate) fn slow_step(
    prog: &SlowProgram,
    st: &mut MachineState,
    scratch: &mut SlowScratch,
    rec: Option<Recorder<'_>>,
    pc: u32,
) -> Exit {
    let (f, mut w) = st.split();
    match rec {
        Some(r) => run::<RECORD>(prog, f, &mut w, scratch, Some(r), &[], pc),
        None => run::<PLAIN>(prog, f, &mut w, scratch, None, &[], pc),
    }
}

/// Writes `main`'s parameters into `f` from a serialized key.
///
/// # Panics
///
/// Panics if the key does not decode per the parameter types (keys are
/// only ever built from the same program).
pub(crate) fn seed_params(prog: &SlowProgram, f: Frame<'_>, key: &Key, vals: &mut Vec<i64>) {
    let mut r = KeyReader::new(key);
    for p in &prog.params {
        match *p {
            Param::Scalar(s) => {
                f.regs[s as usize] = r.scalar().expect("key matches parameter types");
            }
            Param::Queue(a) => {
                r.queue_into(vals).expect("key matches parameter types");
                f.aggs[a as usize].load_values(vals);
            }
        }
    }
}

/// The interpreter core. `rec` is present exactly in [`RECORD`] mode and
/// `stack` is the recovery stack of [`RECOVER`] mode; the const generic
/// `M` removes the other modes' branches from each instantiation.
#[allow(clippy::too_many_arguments)] // the core threads every mode's state explicitly
pub(crate) fn run<const M: u8>(
    prog: &SlowProgram,
    f: Frame<'_>,
    w: &mut World<'_>,
    s: &mut SlowScratch,
    mut rec: Option<Recorder<'_>>,
    stack: &[Replayed],
    mut pc: u32,
) -> Exit {
    let Frame {
        regs,
        gscalars: gs,
        aggs,
    } = f;
    // Recording: the open group's action and the instruction count at
    // its open (retirement is always a dynamic op, so the delta at close
    // is the group's exact cost, for profiling attribution).
    let mut pending: Option<u32> = None;
    let mut insns0: u64 = 0;
    // Recovery: the next stack item, and the item of the open group.
    let mut item = 0usize;
    let mut current: Option<Replayed> = None;

    macro_rules! r {
        ($slot:expr) => {
            regs[$slot as usize]
        };
    }
    macro_rules! bin {
        ($op:expr, $d:expr, $a:expr, $b:expr) => {
            r!($d) = eval_binop($op, r!($a), r!($b))
        };
    }
    macro_rules! queue {
        ($op:expr, $q:expr, $a0:expr, $a1:expr) => {
            aggs[$q as usize].queue_op($op, $a0, $a1)
        };
    }

    loop {
        let op = prog.ops[pc as usize];
        let rp = if M == PLAIN {
            NO_REC
        } else {
            prog.recs[pc as usize]
        };
        if rp != NO_REC {
            let p = prog.points[rp as usize];
            if M == RECORD {
                if p.start != NO_ACTION {
                    debug_assert!(pending.is_none(), "previous group not closed");
                    pending = Some(p.start);
                    s.group.clear();
                    insns0 = w.stats.insns;
                }
                memoize(prog, p.memo, regs, gs, aggs, &mut s.group);
            } else {
                // RECOVER: a dynamic op. Its effects were already applied
                // by the fast engine; only group bookkeeping and the
                // recorded test values matter here.
                if p.start != NO_ACTION {
                    let Some(&it) = stack.get(item) else {
                        return Exit::Fault {
                            kind: RecoveryErrorKind::Underflow,
                            action: p.start,
                        };
                    };
                    if it.action != p.start {
                        return Exit::Fault {
                            kind: RecoveryErrorKind::Mismatch {
                                expected: p.start,
                                found: it.action,
                            },
                            action: p.start,
                        };
                    }
                    current = Some(it);
                    item += 1;
                }
                match op {
                    SOp::Verify { d, .. } => {
                        let it = current.take().expect("verify closes an open group");
                        r!(d) = it.value.expect("verify actions record their value");
                        if item == stack.len() {
                            return Exit::Resume {
                                pc: pc + 1,
                                action: it.action,
                            };
                        }
                    }
                    SOp::Close => {
                        if let Some(it) = current.take() {
                            if item == stack.len() {
                                return Exit::Resume {
                                    pc: pc + 1,
                                    action: it.action,
                                };
                            }
                        }
                    }
                    SOp::BrNz { .. } | SOp::BrZ { .. } | SOp::Br { .. } | SOp::Switch { .. } => {
                        let it = current.take().expect("a dynamic test closes an open group");
                        if it.action != p.action {
                            return Exit::Fault {
                                kind: RecoveryErrorKind::Mismatch {
                                    expected: p.action,
                                    found: it.action,
                                },
                                action: p.action,
                            };
                        }
                        let v = it.value.expect("test actions record their value");
                        let to = branch_target(prog, op, v, pc);
                        if item == stack.len() {
                            return Exit::Resume {
                                pc: to,
                                action: p.action,
                            };
                        }
                        pc = to;
                        continue;
                    }
                    // INDEX misses are clean step boundaries, never
                    // recoveries: reaching one means items are left over.
                    SOp::Next { .. } => {
                        return Exit::Fault {
                            kind: RecoveryErrorKind::Overrun,
                            action: p.action,
                        }
                    }
                    _ => {}
                }
                pc += 1;
                continue;
            }
        }

        match op {
            SOp::Add { d, a, b } => bin!(BinOp::Add, d, a, b),
            SOp::Sub { d, a, b } => bin!(BinOp::Sub, d, a, b),
            SOp::And { d, a, b } => bin!(BinOp::And, d, a, b),
            SOp::Or { d, a, b } => bin!(BinOp::Or, d, a, b),
            SOp::Xor { d, a, b } => bin!(BinOp::Xor, d, a, b),
            SOp::Shl { d, a, b } => bin!(BinOp::Shl, d, a, b),
            SOp::Shr { d, a, b } => bin!(BinOp::Shr, d, a, b),
            SOp::Shru { d, a, b } => bin!(BinOp::Shru, d, a, b),
            SOp::Eq { d, a, b } => bin!(BinOp::Eq, d, a, b),
            SOp::Ne { d, a, b } => bin!(BinOp::Ne, d, a, b),
            SOp::Lt { d, a, b } => bin!(BinOp::Lt, d, a, b),
            SOp::Ge { d, a, b } => bin!(BinOp::Ge, d, a, b),
            SOp::Bin { op, d, a, b } => bin!(op, d, a, b),
            SOp::Sext { d, a, w } => r!(d) = eval_unop(UnOp::Sext(w), r!(a)),
            SOp::Zext { d, a, w } => r!(d) = eval_unop(UnOp::Zext(w), r!(a)),
            SOp::Un { op, d, a } => r!(d) = eval_unop(op.op(), r!(a)),
            SOp::Copy { d, s } => r!(d) = r!(s),
            SOp::LoadGlobal { d, g } => r!(d) = gs[g as usize],
            SOp::StoreGlobal { g, s } => gs[g as usize] = r!(s),
            SOp::ElemGet { d, agg, i } => r!(d) = aggs[agg as usize].get(r!(i)),
            SOp::ElemSet { agg, i, s } => {
                let (i, v) = (r!(i), r!(s));
                aggs[agg as usize].set(i, v);
            }
            SOp::AggCopy { d, s } => copy_agg(aggs, d as usize, s as usize),
            SOp::ArrFill { agg, s } => aggs[agg as usize].fill(r!(s)),
            SOp::QPushBack { q, s } => {
                queue!(QueueOp::PushBack, q, r!(s), 0);
            }
            SOp::QPushFront { q, s } => {
                queue!(QueueOp::PushFront, q, r!(s), 0);
            }
            SOp::QPopBack { q, d } => r!(d) = queue!(QueueOp::PopBack, q, 0, 0),
            SOp::QPopFront { q, d } => r!(d) = queue!(QueueOp::PopFront, q, 0, 0),
            SOp::QLen { q, d } => r!(d) = queue!(QueueOp::Len, q, 0, 0),
            SOp::QGet { q, i, d } => r!(d) = queue!(QueueOp::Get, q, r!(i), 0),
            SOp::QSet { q, i, s } => {
                queue!(QueueOp::Set, q, r!(i), r!(s));
            }
            SOp::QClear { q } => {
                queue!(QueueOp::Clear, q, 0, 0);
            }
            SOp::QFront { q, d } => r!(d) = queue!(QueueOp::Front, q, 0, 0),
            SOp::QBack { q, d } => r!(d) = queue!(QueueOp::Back, q, 0, 0),
            SOp::Fetch { d, addr, bits } => {
                r!(d) = w.target.fetch_token(r!(addr) as u64, bits) as i64;
            }
            // Effectful ops: always dynamic, so never reached in RECOVER.
            SOp::CallExt { call } => {
                let c = &prog.calls[call as usize];
                s.ext_args.clear();
                s.ext_args.extend(c.args.iter().map(|&a| r!(a)));
                r!(c.d) = w.call_ext(c.ext as usize, &s.ext_args);
            }
            SOp::Load { d, addr, width } => {
                r!(d) = w.target.mem.load(r!(addr) as u64, width.bytes() as u32) as i64;
            }
            SOp::Store { addr, s, width } => {
                w.target
                    .mem
                    .store(r!(addr) as u64, width.bytes() as u32, r!(s) as u64);
            }
            SOp::CountCycles { n } => w.stats.count_cycles(r!(n).max(0) as u64),
            SOp::CountInsns { n } => w.stats.count_insns(w.engine, r!(n).max(0) as u64),
            SOp::Halt { code } => {
                let c = r!(code);
                *w.halted = Some(HaltReason::from_code(c));
                if w.obs.enabled() {
                    w.obs.emit(TraceEvent::Halt {
                        step: w.obs_step(),
                        engine: EngineTag::Slow,
                        code: c,
                    });
                }
                if M == RECORD {
                    if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                        rec.cache.record_plain(rec.cursor, a, &s.group);
                        note_slow(w, a, insns0);
                    }
                }
                return Exit::Halted;
            }
            SOp::Trace { v } => w.push_trace(r!(v)),
            SOp::Verify { d, s: src } => {
                let v = r!(src);
                r!(d) = v;
                if M == RECORD {
                    if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                        rec.cache.record_test(rec.cursor, a, &s.group, v);
                        note_slow(w, a, insns0);
                    }
                }
            }
            SOp::Next { plan } => {
                let plan = &prog.nexts[plan as usize];
                if M == RECORD {
                    record_next(plan, regs, aggs, s);
                    if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                        // The cursor owns its key and signature.
                        rec.cache.record_index(
                            rec.cursor,
                            a,
                            &s.group,
                            Key::from_bytes(s.key.bytes()),
                            s.sig.clone(),
                        );
                        note_slow(w, a, insns0);
                    }
                }
                move_params(plan, regs, aggs, &mut s.stage);
                return Exit::Next;
            }
            SOp::Lift => {}
            SOp::Close => {
                if M == RECORD {
                    if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                        rec.cache.record_plain(rec.cursor, a, &s.group);
                        note_slow(w, a, insns0);
                    }
                }
            }
            SOp::Jmp { to } => {
                pc = to;
                continue;
            }
            SOp::BrEq { a, b, to } => {
                pc = if r!(a) == r!(b) { to } else { pc + 1 };
                continue;
            }
            SOp::BrNe { a, b, to } => {
                pc = if r!(a) != r!(b) { to } else { pc + 1 };
                continue;
            }
            SOp::BrLt { a, b, to } => {
                pc = if r!(a) < r!(b) { to } else { pc + 1 };
                continue;
            }
            SOp::BrLe { a, b, to } => {
                pc = if r!(a) <= r!(b) { to } else { pc + 1 };
                continue;
            }
            SOp::BrGt { a, b, to } => {
                pc = if r!(a) > r!(b) { to } else { pc + 1 };
                continue;
            }
            SOp::BrGe { a, b, to } => {
                pc = if r!(a) >= r!(b) { to } else { pc + 1 };
                continue;
            }
            SOp::BrNz { c, .. }
            | SOp::BrZ { c, .. }
            | SOp::Br { c, .. }
            | SOp::Switch { v: c, .. } => {
                let v = r!(c);
                if M == RECORD && rp != NO_REC {
                    if let (Some(rec), Some(a)) = (&mut rec, pending.take()) {
                        rec.cache.record_test(rec.cursor, a, &s.group, v);
                        note_slow(w, a, insns0);
                    }
                }
                pc = branch_target(prog, op, v, pc);
                continue;
            }
            SOp::Ret => {
                if M == RECOVER {
                    // With a consistent stack the miss action commits
                    // before the step returns; reaching here means the
                    // stack carried extra trailing items.
                    return Exit::Fault {
                        kind: RecoveryErrorKind::Overrun,
                        action: stack.last().map_or(NO_ACTION, |r| r.action),
                    };
                }
                // A step that falls off the end never called `next`.
                debug_assert!(pending.is_none(), "groups close at block ends");
                *w.halted = Some(HaltReason::NoNext);
                if w.obs.enabled() {
                    w.obs.emit(TraceEvent::Halt {
                        step: w.obs_step(),
                        engine: EngineTag::Slow,
                        code: 1,
                    });
                }
                return Exit::Halted;
            }
        }
        pc += 1;
    }
}

/// Where a branch op goes for scrutinee `v`.
#[inline(always)]
fn branch_target(prog: &SlowProgram, op: SOp, v: i64, pc: u32) -> u32 {
    match op {
        SOp::BrNz { to, .. } if v != 0 => to,
        SOp::BrZ { to, .. } if v == 0 => to,
        SOp::Br { t, f, .. } => {
            if v != 0 {
                t
            } else {
                f
            }
        }
        SOp::Switch { table, .. } => prog.switches[table as usize].target(v),
        _ => pc + 1,
    }
}

/// Announces a recorded action and its exact instruction cost to the
/// profiler.
#[inline(always)]
fn note_slow(w: &World<'_>, action: u32, insns0: u64) {
    if w.obs.enabled() {
        w.obs
            .action_slow(action, w.stats.insns.wrapping_sub(insns0));
    }
}

/// Appends a record point's placeholder data to the open group.
#[inline(always)]
fn memoize(
    prog: &SlowProgram,
    memo: Memo,
    regs: &[i64],
    gs: &[i64],
    aggs: &[AggStorage],
    out: &mut Vec<i64>,
) {
    match memo {
        Memo::None => {}
        Memo::Slots { off, len } => {
            let slots = &prog.memo_slots[off as usize..(off + len) as usize];
            out.extend(slots.iter().map(|&s| regs[s as usize]));
        }
        Memo::Global(g) => out.push(gs[g as usize]),
        Memo::Agg(a) => {
            let agg = &aggs[a as usize];
            out.push(agg.len() as i64);
            out.extend(agg.iter());
        }
    }
}

/// The INDEX record of a `next(...)`: serializes the key into the
/// scratch key buffer, appends the run-time-static components to the
/// open group's data (so the fast engine can rebuild the key) and
/// collects the dynamic ones as the node-local link signature.
fn record_next(plan: &NextPlan, regs: &[i64], aggs: &[AggStorage], s: &mut SlowScratch) {
    s.key.reset();
    s.sig.clear();
    for arg in plan.args.iter() {
        match *arg {
            NextArg::Scalar { src, rt } => {
                let v = regs[src as usize];
                s.key.scalar(v);
                let out = if rt { &mut s.group } else { &mut s.sig };
                out.push(v);
            }
            NextArg::Queue { agg, rt } => {
                let q = &aggs[agg as usize];
                s.key.queue_vals(q.iter());
                let out = if rt { &mut s.group } else { &mut s.sig };
                out.push(q.len() as i64);
                out.extend(q.iter());
            }
        }
    }
}

/// Hands `next(...)`'s arguments to `main`'s parameters as a parallel
/// move: every scalar source and every queue source that another move
/// overwrites is staged before any parameter is written.
fn move_params(plan: &NextPlan, regs: &mut [i64], aggs: &mut [AggStorage], stage: &mut Vec<i64>) {
    stage.clear();
    stage.extend(plan.scalar_moves.iter().map(|&(_, src)| regs[src as usize]));
    for m in plan.queue_moves.iter().filter(|m| m.staged) {
        let q = &aggs[m.src as usize];
        stage.push(q.len() as i64);
        stage.extend(q.iter());
    }
    // Unstaged sources are never written by this move: copy directly.
    for m in plan.queue_moves.iter().filter(|m| !m.staged) {
        copy_agg(aggs, m.dst as usize, m.src as usize);
    }
    for (&(p, _), &v) in plan.scalar_moves.iter().zip(stage.iter()) {
        regs[p as usize] = v;
    }
    let mut k = plan.scalar_moves.len();
    for m in plan.queue_moves.iter().filter(|m| m.staged) {
        let len = stage[k] as usize;
        aggs[m.dst as usize].load_values(&stage[k + 1..k + 1 + len]);
        k += 1 + len;
    }
}
