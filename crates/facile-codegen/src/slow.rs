//! The slow engine's pre-decoded op program (paper §6.3, optimization 2).
//!
//! [`SlowProgram::lower`] turns the annotated IR into one flat op array
//! that `facile-vm` interprets in three modes: *plain* (the paper's
//! "without memoization" fac−), *record* (the instrumented slow engine of
//! Figure 10) and *recover* (shadow re-execution of the run-time-static
//! slice after a miss, with the dynamic ops compiled out). Lowering runs
//! once per compile and the result is shared read-only:
//!
//! * every operand is a register-file slot; constants live in a pool
//!   appended after the variables (plus one sink slot for discarded
//!   results), so no op distinguishes immediates from registers;
//! * aggregate locations are resolved to slots of one aggregate pool
//!   ([`AggLayout`]);
//! * blocks are laid out with fall-through, so most jumps vanish, two-way
//!   branches become [`SOp::BrZ`]/[`SOp::BrNz`] to patched pcs, and jumps
//!   to jumps are threaded;
//! * the hottest binary operations and every queue operation get their
//!   own opcodes, and a run-time-static comparison whose only use is the
//!   block's branch fuses into it ([`SOp::BrEq`] and kin);
//! * the recording instrumentation — action starts, memoized operands,
//!   lifts, group closers — is pre-resolved into one [`RecPoint`] per
//!   dynamic op, so no engine inspects IR operands at run time.
//!
//! Malformed IR (an out-of-range variable, global, block, token, external
//! or action id, or an annotation that disagrees with the IR) is rejected
//! here with a [`CodegenError`] instead of panicking in the VM.

use crate::actions::{ActionCode, ActionKind, BlockAnnot, Closes, InstAnnot, KeyPlanArg, LiftWhat};
use crate::CodegenError;
use facile_ir::ir::*;
use facile_sema::{GlobalId, Type};
use std::collections::HashMap;

/// An index into the register file: a variable, a pooled constant, or
/// the sink.
pub type Slot = u32;

/// [`SlowProgram::recs`] entry of an op that records nothing (a
/// run-time-static op).
pub const NO_REC: u32 = u32::MAX;

/// [`RecPoint::start`] of an op that opens no action.
pub const NO_ACTION: u32 = u32::MAX;

/// One pre-decoded slow-engine operation. Register operands are
/// [`Slot`]s, aggregates are [`AggLayout`] pool indices, branch targets
/// are pcs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field names follow one scheme: d = destination, a/b/s = sources
#[rustfmt::skip]
pub enum SOp {
    Add { d: Slot, a: Slot, b: Slot },
    Sub { d: Slot, a: Slot, b: Slot },
    And { d: Slot, a: Slot, b: Slot },
    Or { d: Slot, a: Slot, b: Slot },
    Xor { d: Slot, a: Slot, b: Slot },
    Shl { d: Slot, a: Slot, b: Slot },
    Shr { d: Slot, a: Slot, b: Slot },
    Shru { d: Slot, a: Slot, b: Slot },
    Eq { d: Slot, a: Slot, b: Slot },
    Ne { d: Slot, a: Slot, b: Slot },
    Lt { d: Slot, a: Slot, b: Slot },
    Ge { d: Slot, a: Slot, b: Slot },
    /// Any other binary operation.
    Bin { op: BinOp, d: Slot, a: Slot, b: Slot },
    Sext { d: Slot, a: Slot, w: u32 },
    Zext { d: Slot, a: Slot, w: u32 },
    /// A width-free unary operation (`Neg`, `Not`, `BitNot`, `I2F`, `F2I`).
    Un { op: UnCode, d: Slot, a: Slot },
    Copy { d: Slot, s: Slot },
    LoadGlobal { d: Slot, g: u32 },
    StoreGlobal { g: u32, s: Slot },
    /// Array or queue element read (0 when out of range).
    ElemGet { d: Slot, agg: u32, i: Slot },
    /// Array or queue element write (ignored when out of range).
    ElemSet { agg: u32, i: Slot, s: Slot },
    AggCopy { d: u32, s: u32 },
    ArrFill { agg: u32, s: Slot },
    QPushBack { q: u32, s: Slot },
    QPushFront { q: u32, s: Slot },
    QPopBack { q: u32, d: Slot },
    QPopFront { q: u32, d: Slot },
    QLen { q: u32, d: Slot },
    QGet { q: u32, i: Slot, d: Slot },
    QSet { q: u32, i: Slot, s: Slot },
    QClear { q: u32 },
    QFront { q: u32, d: Slot },
    QBack { q: u32, d: Slot },
    /// Token fetch of `bits` bits at stream position `addr`.
    Fetch { d: Slot, addr: Slot, bits: u32 },
    /// External call `calls[call]`.
    CallExt { call: u32 },
    Load { d: Slot, addr: Slot, width: MemWidth },
    Store { addr: Slot, s: Slot, width: MemWidth },
    CountCycles { n: Slot },
    CountInsns { n: Slot },
    Halt { code: Slot },
    Trace { v: Slot },
    /// Dynamic result test on an explicit value: `d = s`, closing a test
    /// action when recording.
    Verify { d: Slot, s: Slot },
    /// `next(...)` per `nexts[plan]`: ends the step.
    Next { plan: u32 },
    /// A lift: no effect on the executing state; its [`RecPoint`]
    /// memoizes the lifted value when recording.
    Lift,
    /// Block end that closes a plain action group (recording and
    /// recovery only; a no-op in plain mode).
    Close,
    Jmp { to: u32 },
    /// Branch to `to` when `c` is non-zero, else fall through.
    BrNz { c: Slot, to: u32 },
    /// Branch to `to` when `c` is zero, else fall through.
    BrZ { c: Slot, to: u32 },
    /// Branch to `t` when `c` is non-zero, else to `f`.
    Br { c: Slot, t: u32, f: u32 },
    /// Branch to `to` when `a == b`, else fall through (a fused compare).
    BrEq { a: Slot, b: Slot, to: u32 },
    /// Branch to `to` when `a != b`, else fall through.
    BrNe { a: Slot, b: Slot, to: u32 },
    /// Branch to `to` when `a < b`, else fall through.
    BrLt { a: Slot, b: Slot, to: u32 },
    /// Branch to `to` when `a <= b`, else fall through.
    BrLe { a: Slot, b: Slot, to: u32 },
    /// Branch to `to` when `a > b`, else fall through.
    BrGt { a: Slot, b: Slot, to: u32 },
    /// Branch to `to` when `a >= b`, else fall through.
    BrGe { a: Slot, b: Slot, to: u32 },
    /// Multi-way branch on `v` per `switches[table]`.
    Switch { v: Slot, table: u32 },
    /// The step function fell off its end without calling `next`.
    Ret,
}

/// Width-free unary operations (the operand of [`SOp::Un`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnCode {
    /// [`UnOp::Neg`].
    Neg,
    /// [`UnOp::Not`].
    Not,
    /// [`UnOp::BitNot`].
    BitNot,
    /// [`UnOp::I2F`].
    I2F,
    /// [`UnOp::F2I`].
    F2I,
}

impl UnCode {
    /// The IR operation this code stands for.
    pub fn op(self) -> UnOp {
        match self {
            UnCode::Neg => UnOp::Neg,
            UnCode::Not => UnOp::Not,
            UnCode::BitNot => UnOp::BitNot,
            UnCode::I2F => UnOp::I2F,
            UnCode::F2I => UnOp::F2I,
        }
    }
}

/// The recording instrumentation of one dynamic op (the compiler-added
/// `memoize_*` calls of the paper's Figure 10), resolved to slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecPoint {
    /// The action this op opens ([`NO_ACTION`] when it continues an open
    /// group). Recording starts a fresh group here; recovery consumes
    /// the next recovery-stack item.
    pub start: u32,
    /// The action the op belongs to; closers record under it.
    pub action: u32,
    /// Run-time-static data memoized before the op executes.
    pub memo: Memo,
}

/// What a [`RecPoint`] memoizes as placeholder data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Memo {
    /// Nothing.
    None,
    /// The values of `memo_slots[off..off + len]`, in order.
    Slots {
        /// Offset into [`SlowProgram::memo_slots`].
        off: u32,
        /// Number of slots.
        len: u32,
    },
    /// A scalar global's value (a `LiftGlobal`).
    Global(u32),
    /// An aggregate's length followed by its elements (a `LiftAgg`).
    Agg(u32),
}

/// An external call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtCall {
    /// The external's index (`IrProgram::ext_names`).
    pub ext: u32,
    /// Argument slots, in order.
    pub args: Box<[Slot]>,
    /// Result slot (the sink when the result is unused).
    pub d: Slot,
}

/// A multi-way branch table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchTable {
    /// `(value, pc)` pairs sorted by value.
    pub cases: Box<[(i64, u32)]>,
    /// Target pc when no case matches.
    pub default: u32,
}

impl SwitchTable {
    /// The target pc for scrutinee `v`.
    pub fn target(&self, v: i64) -> u32 {
        match self.cases.binary_search_by_key(&v, |&(c, _)| c) {
            Ok(i) => self.cases[i].1,
            Err(_) => self.default,
        }
    }
}

/// One key component of `next(...)`, in `main`-parameter order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NextArg {
    /// A scalar read from `src`; `rt` when the INDEX action memoizes it
    /// as placeholder data (otherwise it joins the dynamic signature).
    Scalar {
        /// Source slot.
        src: Slot,
        /// Run-time static.
        rt: bool,
    },
    /// A queue snapshot of aggregate `agg`.
    Queue {
        /// Source aggregate.
        agg: u32,
        /// Run-time static.
        rt: bool,
    },
}

/// A queue parameter's part of the `next(...)` parallel move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueMove {
    /// The parameter's aggregate.
    pub dst: u32,
    /// The argument's aggregate.
    pub src: u32,
    /// The source is itself overwritten by another move, so its contents
    /// must be staged before any parameter is written.
    pub staged: bool,
}

/// How `next(...)` builds the next step's key and hands its arguments
/// to `main`'s parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NextPlan {
    /// Key components in parameter order.
    pub args: Box<[NextArg]>,
    /// Scalar parameter writes `(param, src)`, identity moves dropped.
    /// All sources are read before any parameter is written.
    pub scalar_moves: Box<[(Slot, Slot)]>,
    /// Queue parameter writes, identity moves dropped.
    pub queue_moves: Box<[QueueMove]>,
}

/// Where one of `main`'s parameters lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Param {
    /// A scalar (`int`/`stream`) in this register slot.
    Scalar(Slot),
    /// A queue in this aggregate slot.
    Queue(u32),
}

/// Numbering of aggregate storage: one pool holding every aggregate
/// variable (in variable order) followed by every aggregate global (in
/// global order). Scalars map to `u32::MAX`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AggLayout {
    /// Per-variable pool slot.
    pub var_slot: Vec<u32>,
    /// Per-global pool slot.
    pub global_slot: Vec<u32>,
}

impl AggLayout {
    /// The layout of `ir`.
    pub fn new(ir: &IrProgram) -> AggLayout {
        let mut next = 0u32;
        let mut slot = |scalar: bool| {
            if scalar {
                u32::MAX
            } else {
                next += 1;
                next - 1
            }
        };
        let var_slot = ir
            .main
            .vars
            .iter()
            .map(|v| slot(v.kind == VarKind::Scalar))
            .collect();
        let global_slot = ir
            .globals
            .iter()
            .map(|g| slot(g.kind() == VarKind::Scalar))
            .collect();
        AggLayout {
            var_slot,
            global_slot,
        }
    }

    /// The pool slot of an aggregate location (`u32::MAX` for a scalar).
    pub fn slot(&self, loc: Loc) -> u32 {
        match loc {
            Loc::Var(v) => self.var_slot[v.index()],
            Loc::Global(g) => self.global_slot[g.index()],
        }
    }
}

/// The pre-decoded slow-engine program of one step function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlowProgram {
    /// The ops; execution starts at pc 0.
    pub ops: Vec<SOp>,
    /// Per op (parallel to `ops`): its index into `points`, or [`NO_REC`].
    pub recs: Vec<u32>,
    /// Recording instrumentation of the dynamic ops.
    pub points: Vec<RecPoint>,
    /// Slots memoized by [`Memo::Slots`].
    pub memo_slots: Vec<Slot>,
    /// Number of IR variables (slots `0..n_vars`).
    pub n_vars: u32,
    /// The constant pool: constant `i` lives in slot `n_vars + i`.
    pub consts: Vec<i64>,
    /// External call sites.
    pub calls: Vec<ExtCall>,
    /// Multi-way branch tables.
    pub switches: Vec<SwitchTable>,
    /// `next(...)` plans.
    pub nexts: Vec<NextPlan>,
    /// `main`'s parameters, in order.
    pub params: Vec<Param>,
}

impl SlowProgram {
    /// The sink slot, the register file's last: results nobody reads are
    /// written here.
    pub fn sink(&self) -> Slot {
        self.n_vars + self.consts.len() as u32
    }

    /// Lowers the annotated IR of a step function (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns a [`CodegenError`] when the IR or its annotations are
    /// malformed: an id out of range, an aggregate operation on a
    /// scalar, a dynamic op outside an action, an effectful op labeled
    /// run-time static, or a `next(...)` that disagrees with `main`'s
    /// parameters or its INDEX plan.
    pub fn lower(
        ir: &IrProgram,
        blocks: &[BlockAnnot],
        actions: &[ActionCode],
    ) -> Result<SlowProgram, CodegenError> {
        Lowerer::new(ir, blocks, actions)?.run()
    }
}

fn err(msg: impl Into<String>) -> CodegenError {
    CodegenError {
        rendered: format!("slow-program lowering: {}", msg.into()),
    }
}

struct Lowerer<'a> {
    ir: &'a IrProgram,
    blocks: &'a [BlockAnnot],
    actions: &'a [ActionCode],
    /// How many instructions and terminators read each variable.
    uses: Vec<u32>,
    layout: AggLayout,
    consts: HashMap<i64, Slot>,
    prog: SlowProgram,
}

impl<'a> Lowerer<'a> {
    fn new(
        ir: &'a IrProgram,
        blocks: &'a [BlockAnnot],
        actions: &'a [ActionCode],
    ) -> Result<Self, CodegenError> {
        let f = &ir.main;
        if blocks.len() != f.blocks.len() {
            return Err(err(format!(
                "{} block annotations for {} blocks",
                blocks.len(),
                f.blocks.len()
            )));
        }
        for (i, (b, a)) in f.blocks.iter().zip(blocks).enumerate() {
            if b.insts.len() != a.insts.len() {
                return Err(err(format!(
                    "bb{i}: {} instruction annotations for {} instructions",
                    a.insts.len(),
                    b.insts.len()
                )));
            }
        }
        let prog = SlowProgram {
            n_vars: u32::try_from(f.vars.len()).map_err(|_| err("too many variables"))?,
            ..SlowProgram::default()
        };
        let mut uses = vec![0u32; f.vars.len()];
        let mut read = |o: Operand| {
            if let Operand::Var(v) = o {
                if let Some(n) = uses.get_mut(v.index()) {
                    *n += 1;
                }
            }
        };
        for b in &f.blocks {
            for inst in &b.insts {
                inst.operands().into_iter().for_each(&mut read);
                if let Inst::LiftVar { v } = inst {
                    read(Operand::Var(*v));
                }
            }
            match &b.term {
                Terminator::Branch { cond: o, .. } | Terminator::Switch { val: o, .. } => read(*o),
                Terminator::Jump(_) | Terminator::Return => {}
            }
        }
        Ok(Lowerer {
            ir,
            blocks,
            actions,
            uses,
            layout: AggLayout::new(ir),
            consts: HashMap::new(),
            prog,
        })
    }

    fn var(&self, v: VarId) -> Result<Slot, CodegenError> {
        if v.index() < self.ir.main.vars.len() {
            Ok(v.0)
        } else {
            Err(err(format!("variable {v} out of range")))
        }
    }

    fn operand(&mut self, o: Operand) -> Result<Slot, CodegenError> {
        match o {
            Operand::Var(v) => self.var(v),
            Operand::Const(c) => {
                let next = self.prog.n_vars + self.consts.len() as u32;
                let slot = *self.consts.entry(c).or_insert(next);
                if slot == next {
                    self.prog.consts.push(c);
                }
                Ok(slot)
            }
        }
    }

    fn opt_operand(&mut self, o: Option<Operand>) -> Result<Slot, CodegenError> {
        self.operand(o.unwrap_or(Operand::Const(0)))
    }

    /// Destination slot; `None` writes to the sink (resolved at the end,
    /// once the constant pool is complete).
    fn dst(&self, d: Option<VarId>) -> Result<Slot, CodegenError> {
        match d {
            Some(v) => self.var(v),
            None => Ok(SINK),
        }
    }

    fn global(&self, g: GlobalId) -> Result<u32, CodegenError> {
        if g.index() < self.ir.globals.len() {
            Ok(g.0)
        } else {
            Err(err(format!("global g{} out of range", g.0)))
        }
    }

    fn agg(&self, loc: Loc) -> Result<u32, CodegenError> {
        let slot = match loc {
            Loc::Var(v) => self.layout.var_slot.get(v.index()),
            Loc::Global(g) => self.layout.global_slot.get(g.index()),
        };
        match slot {
            None => Err(err(format!("aggregate {loc} out of range"))),
            Some(&u32::MAX) => Err(err(format!("aggregate operation on scalar {loc}"))),
            Some(&s) => Ok(s),
        }
    }

    fn queue(&self, loc: Loc) -> Result<u32, CodegenError> {
        let kind = match loc {
            Loc::Var(v) => self.ir.main.vars.get(v.index()).map(|v| v.kind),
            Loc::Global(g) => self.ir.globals.get(g.index()).map(|g| g.kind()),
        };
        if kind.is_some() && kind != Some(VarKind::Queue) {
            return Err(err(format!("queue operation on non-queue {loc}")));
        }
        self.agg(loc)
    }

    fn action(&self, a: u32) -> Result<u32, CodegenError> {
        if (a as usize) < self.actions.len() {
            Ok(a)
        } else {
            Err(err(format!("action {a} out of range")))
        }
    }

    fn block(&self, b: BlockId) -> Result<BlockId, CodegenError> {
        if b.index() < self.ir.main.blocks.len() {
            Ok(b)
        } else {
            Err(err(format!("block {b} out of range")))
        }
    }

    fn push(&mut self, op: SOp, rec: u32) {
        self.prog.ops.push(op);
        self.prog.recs.push(rec);
    }

    fn point(&mut self, p: RecPoint) -> u32 {
        self.prog.points.push(p);
        self.prog.points.len() as u32 - 1
    }

    fn run(mut self) -> Result<SlowProgram, CodegenError> {
        let f = &self.ir.main;
        for (p, t) in f.params.iter().zip(&f.param_types) {
            let param = match t {
                Type::Queue => Param::Queue(self.queue(Loc::Var(*p))?),
                _ => Param::Scalar(self.var(*p)?),
            };
            self.prog.params.push(param);
        }
        if f.params.len() != f.param_types.len() {
            return Err(err("parameter list and parameter types disagree"));
        }

        let order = self.layout_order()?;
        let mut block_pc = vec![u32::MAX; f.blocks.len()];
        for (i, &b) in order.iter().enumerate() {
            block_pc[b.index()] = self.prog.ops.len() as u32;
            let next = order.get(i + 1).copied();
            self.emit_block(b, next)?;
        }

        // Patch block ids to pcs, and sink placeholders to the sink.
        let sink = self.prog.sink();
        let pc = |b: u32| block_pc[b as usize];
        for op in &mut self.prog.ops {
            map_targets(op, pc);
            match op {
                SOp::QPopBack { d, .. }
                | SOp::QPopFront { d, .. }
                | SOp::QLen { d, .. }
                | SOp::QGet { d, .. }
                | SOp::QFront { d, .. }
                | SOp::QBack { d, .. }
                    if *d == SINK =>
                {
                    *d = sink
                }
                _ => {}
            }
        }
        for call in &mut self.prog.calls {
            if call.d == SINK {
                call.d = sink;
            }
        }
        for t in &mut self.prog.switches {
            for (_, to) in t.cases.iter_mut() {
                *to = pc(*to);
            }
            t.default = pc(t.default);
        }
        self.thread_jumps();
        Ok(self.prog)
    }

    /// Retargets control transfers that land on an unconditional jump to
    /// that jump's destination.
    fn thread_jumps(&mut self) {
        let ops = &self.prog.ops;
        let dest = |mut to: u32| {
            // Bounded: a jump cycle (an empty infinite loop) stays put.
            for _ in 0..ops.len() {
                match ops[to as usize] {
                    SOp::Jmp { to: next } if next != to => to = next,
                    _ => break,
                }
            }
            to
        };
        let threaded: Vec<SOp> = ops
            .iter()
            .map(|&op| {
                let mut op = op;
                map_targets(&mut op, dest);
                op
            })
            .collect();
        for t in &mut self.prog.switches {
            for (_, to) in t.cases.iter_mut() {
                *to = dest(*to);
            }
            t.default = dest(t.default);
        }
        self.prog.ops = threaded;
    }

    /// Block order: a chain layout from the entry that places a jump's
    /// target, or a branch's else (or then) block, right after its
    /// predecessor whenever it is still free. Only reachable blocks are
    /// laid out.
    fn layout_order(&self) -> Result<Vec<BlockId>, CodegenError> {
        let f = &self.ir.main;
        let mut placed = vec![false; f.blocks.len()];
        let mut order = Vec::new();
        let mut pending = vec![self.block(f.entry)?];
        while let Some(mut b) = pending.pop() {
            while !placed[b.index()] {
                placed[b.index()] = true;
                order.push(b);
                let term = &f.blocks[b.index()].term;
                let succs = term.successors();
                for &s in &succs {
                    self.block(s)?;
                }
                let ft = match term {
                    Terminator::Jump(t) => Some(*t),
                    Terminator::Branch {
                        then_bb, else_bb, ..
                    } => {
                        if !placed[else_bb.index()] {
                            pending.push(*then_bb);
                            Some(*else_bb)
                        } else {
                            Some(*then_bb)
                        }
                    }
                    Terminator::Switch { .. } => {
                        pending.extend(succs.iter().rev());
                        None
                    }
                    Terminator::Return => None,
                };
                match ft {
                    Some(t) if !placed[t.index()] => b = t,
                    _ => break,
                }
            }
        }
        Ok(order)
    }

    fn emit_block(&mut self, b: BlockId, next: Option<BlockId>) -> Result<(), CodegenError> {
        let ir = self.ir;
        let block = &ir.main.blocks[b.index()];
        let annots = &self.blocks[b.index()];
        // The open action group: groups never span blocks.
        let mut open: Option<u32> = None;
        // A trailing comparison that only feeds the branch fuses into it —
        // unless a block-end close would sit between the two: a recovery
        // can resume right after the close, where the comparison's
        // operands need not be committed.
        let open_at_end = annots.insts.iter().fold(None, |open, a| match a {
            a if a.closes.is_some() => None,
            InstAnnot {
                action_start: Some(s),
                ..
            } => Some(*s),
            _ => open,
        });
        let fused = match self.fusible_compare(b).filter(|_| open_at_end.is_none()) {
            Some((op, a, b)) => Some((op, self.operand(a)?, self.operand(b)?)),
            None => None,
        };
        let n_emit = block.insts.len() - fused.is_some() as usize;
        for (ii, (inst, annot)) in block.insts[..n_emit].iter().zip(&annots.insts).enumerate() {
            let rec = if annot.dynamic {
                self.rec_point(inst, annot, &mut open)
                    .map_err(|e| err(format!("bb{}:{ii}: {}", b.0, e.rendered)))?
            } else if is_effect(inst) {
                return Err(err(format!(
                    "bb{}:{ii}: `{inst}` has effects but is labeled run-time static",
                    b.0
                )));
            } else {
                NO_REC
            };
            let op = self
                .lower_inst(inst, rec)
                .map_err(|e| err(format!("bb{}:{ii}: {}", b.0, e.rendered)))?;
            self.push(op, rec);
        }

        // A dynamic terminator closes the open group (or is an action of
        // its own); otherwise an open plain group closes at the block end.
        let term_rec = match annots.term_action {
            Some(a) => {
                let a = self.action(a)?;
                let start = match open {
                    None => a,
                    Some(o) if o == a => NO_ACTION,
                    Some(o) => {
                        return Err(err(format!(
                            "bb{}: terminator action {a} does not close open action {o}",
                            b.0
                        )))
                    }
                };
                self.point(RecPoint {
                    start,
                    action: a,
                    memo: Memo::None,
                })
            }
            None => {
                if let Some(a) = open {
                    let p = self.point(RecPoint {
                        start: NO_ACTION,
                        action: a,
                        memo: Memo::None,
                    });
                    self.push(SOp::Close, p);
                }
                NO_REC
            }
        };
        if term_rec != NO_REC && matches!(block.term, Terminator::Jump(_) | Terminator::Return) {
            return Err(err(format!(
                "bb{}: a jump or return cannot be a dynamic test",
                b.0
            )));
        }

        match &block.term {
            Terminator::Jump(t) => {
                if next != Some(*t) {
                    self.push(SOp::Jmp { to: t.0 }, NO_REC);
                }
            }
            Terminator::Branch {
                then_bb, else_bb, ..
            } if fused.is_some() => {
                let (op, a, b) = fused.expect("guarded");
                if next == Some(*then_bb) {
                    self.push(compare_branch(negate(op), a, b, else_bb.0), NO_REC);
                } else {
                    self.push(compare_branch(op, a, b, then_bb.0), NO_REC);
                    if next != Some(*else_bb) {
                        self.push(SOp::Jmp { to: else_bb.0 }, NO_REC);
                    }
                }
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = self.operand(*cond)?;
                let (t, f) = (then_bb.0, else_bb.0);
                let op = if next == Some(*else_bb) {
                    SOp::BrNz { c, to: t }
                } else if next == Some(*then_bb) {
                    SOp::BrZ { c, to: f }
                } else {
                    SOp::Br { c, t, f }
                };
                self.push(op, term_rec);
            }
            Terminator::Switch {
                val,
                cases,
                default,
            } => {
                let v = self.operand(*val)?;
                let mut sorted: Vec<(i64, u32)> = cases.iter().map(|&(c, t)| (c, t.0)).collect();
                sorted.sort_by_key(|&(c, _)| c);
                if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
                    return Err(err(format!("bb{}: duplicate switch case", b.0)));
                }
                self.prog.switches.push(SwitchTable {
                    cases: sorted.into_boxed_slice(),
                    default: default.0,
                });
                let table = self.prog.switches.len() as u32 - 1;
                self.push(SOp::Switch { v, table }, term_rec);
            }
            Terminator::Return => self.push(SOp::Ret, NO_REC),
        }
        Ok(())
    }

    /// A block's last instruction when it is a run-time-static
    /// comparison into a temporary whose only use is the block's
    /// run-time-static branch: `(op, a, b)`.
    fn fusible_compare(&self, b: BlockId) -> Option<(BinOp, Operand, Operand)> {
        let block = &self.ir.main.blocks[b.index()];
        let annots = &self.blocks[b.index()];
        let Terminator::Branch {
            cond: Operand::Var(c),
            ..
        } = block.term
        else {
            return None;
        };
        let Some(Inst::Bin { op, dst, a, b }) = block.insts.last() else {
            return None;
        };
        let compare = matches!(
            op,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        );
        let rt_static = annots.term_action.is_none() && !annots.insts.last()?.dynamic;
        let single_use = self.uses.get(c.index()) == Some(&1)
            && self.ir.main.vars.get(c.index()).is_some_and(|v| v.is_temp);
        (compare && rt_static && single_use && *dst == c).then_some((*op, *a, *b))
    }

    /// The recording instrumentation of a dynamic instruction.
    fn rec_point(
        &mut self,
        inst: &Inst,
        annot: &InstAnnot,
        open: &mut Option<u32>,
    ) -> Result<u32, CodegenError> {
        let start = match annot.action_start {
            Some(a) => {
                let a = self.action(a)?;
                *open = Some(a);
                a
            }
            None => NO_ACTION,
        };
        let action = open.ok_or_else(|| err("dynamic instruction outside an action"))?;
        let memo = if annot.closes == Some(Closes::Index) {
            // `next(...)` memoizes its key components itself.
            Memo::None
        } else if let Some(lift) = &annot.lift {
            match lift {
                LiftWhat::Var(v) => {
                    let s = self.var(*v)?;
                    self.memo_slots(&[s])
                }
                LiftWhat::Global(g) => Memo::Global(self.global(*g)?),
                LiftWhat::Agg(loc) => Memo::Agg(self.agg(*loc)?),
            }
        } else if annot.placeholders.is_empty() {
            Memo::None
        } else {
            let ops = inst.operands();
            let mut slots = Vec::with_capacity(annot.placeholders.len());
            for &k in &annot.placeholders {
                let o = *ops
                    .get(k as usize)
                    .ok_or_else(|| err(format!("placeholder operand {k} out of range")))?;
                slots.push(self.operand(o)?);
            }
            self.memo_slots(&slots)
        };
        if annot.closes.is_some() {
            *open = None;
        }
        Ok(self.point(RecPoint {
            start,
            action,
            memo,
        }))
    }

    fn memo_slots(&mut self, slots: &[Slot]) -> Memo {
        let off = self.prog.memo_slots.len() as u32;
        self.prog.memo_slots.extend_from_slice(slots);
        Memo::Slots {
            off,
            len: slots.len() as u32,
        }
    }

    fn lower_inst(&mut self, inst: &Inst, rec: u32) -> Result<SOp, CodegenError> {
        Ok(match inst {
            Inst::Bin { op, dst, a, b } => {
                let (d, a, b) = (self.var(*dst)?, self.operand(*a)?, self.operand(*b)?);
                match op {
                    BinOp::Add => SOp::Add { d, a, b },
                    BinOp::Sub => SOp::Sub { d, a, b },
                    BinOp::And => SOp::And { d, a, b },
                    BinOp::Or => SOp::Or { d, a, b },
                    BinOp::Xor => SOp::Xor { d, a, b },
                    BinOp::Shl => SOp::Shl { d, a, b },
                    BinOp::Shr => SOp::Shr { d, a, b },
                    BinOp::Shru => SOp::Shru { d, a, b },
                    BinOp::Eq => SOp::Eq { d, a, b },
                    BinOp::Ne => SOp::Ne { d, a, b },
                    BinOp::Lt => SOp::Lt { d, a, b },
                    BinOp::Ge => SOp::Ge { d, a, b },
                    op => SOp::Bin { op: *op, d, a, b },
                }
            }
            Inst::Un { op, dst, a } => {
                let (d, a) = (self.var(*dst)?, self.operand(*a)?);
                let un = |op| SOp::Un { op, d, a };
                match *op {
                    UnOp::Sext(w) => SOp::Sext { d, a, w },
                    UnOp::Zext(w) => SOp::Zext { d, a, w },
                    UnOp::Neg => un(UnCode::Neg),
                    UnOp::Not => un(UnCode::Not),
                    UnOp::BitNot => un(UnCode::BitNot),
                    UnOp::I2F => un(UnCode::I2F),
                    UnOp::F2I => un(UnCode::F2I),
                }
            }
            Inst::Copy { dst, src } => SOp::Copy {
                d: self.var(*dst)?,
                s: self.operand(*src)?,
            },
            Inst::LoadGlobal { dst, g } => SOp::LoadGlobal {
                d: self.var(*dst)?,
                g: self.global(*g)?,
            },
            Inst::StoreGlobal { g, src } => SOp::StoreGlobal {
                g: self.global(*g)?,
                s: self.operand(*src)?,
            },
            Inst::ElemGet { dst, agg, idx } => SOp::ElemGet {
                d: self.var(*dst)?,
                agg: self.agg(*agg)?,
                i: self.operand(*idx)?,
            },
            Inst::ElemSet { agg, idx, src } => SOp::ElemSet {
                agg: self.agg(*agg)?,
                i: self.operand(*idx)?,
                s: self.operand(*src)?,
            },
            Inst::AggCopy { dst, src } => SOp::AggCopy {
                d: self.agg(*dst)?,
                s: self.agg(*src)?,
            },
            Inst::ArrFill { arr, fill } => SOp::ArrFill {
                agg: self.agg(*arr)?,
                s: self.operand(*fill)?,
            },
            Inst::Queue { op, q, args, dst } => {
                let q = self.queue(*q)?;
                let d = self.dst(*dst)?;
                let x = self.opt_operand(args[0])?;
                match op {
                    QueueOp::PushBack => SOp::QPushBack { q, s: x },
                    QueueOp::PushFront => SOp::QPushFront { q, s: x },
                    QueueOp::PopBack => SOp::QPopBack { q, d },
                    QueueOp::PopFront => SOp::QPopFront { q, d },
                    QueueOp::Len => SOp::QLen { q, d },
                    QueueOp::Get => SOp::QGet { q, i: x, d },
                    QueueOp::Set => SOp::QSet {
                        q,
                        i: x,
                        s: self.opt_operand(args[1])?,
                    },
                    QueueOp::Clear => SOp::QClear { q },
                    QueueOp::Front => SOp::QFront { q, d },
                    QueueOp::Back => SOp::QBack { q, d },
                }
            }
            Inst::FetchToken { dst, stream, token } => SOp::Fetch {
                d: self.var(*dst)?,
                addr: self.operand(*stream)?,
                bits: *self
                    .ir
                    .token_widths
                    .get(token.index())
                    .ok_or_else(|| err(format!("token t{} out of range", token.0)))?,
            },
            Inst::CallExt { ext, args, dst } => {
                if ext.index() >= self.ir.ext_names.len() {
                    return Err(err(format!("external e{} out of range", ext.0)));
                }
                let args = args
                    .iter()
                    .map(|&a| self.operand(a))
                    .collect::<Result<Box<[Slot]>, _>>()?;
                let d = self.dst(*dst)?;
                self.prog.calls.push(ExtCall {
                    ext: ext.0,
                    args,
                    d,
                });
                SOp::CallExt {
                    call: self.prog.calls.len() as u32 - 1,
                }
            }
            Inst::MemLoad { width, dst, addr } => SOp::Load {
                d: self.var(*dst)?,
                addr: self.operand(*addr)?,
                width: *width,
            },
            Inst::MemStore { width, addr, src } => SOp::Store {
                addr: self.operand(*addr)?,
                s: self.operand(*src)?,
                width: *width,
            },
            Inst::CountCycles { n } => SOp::CountCycles {
                n: self.operand(*n)?,
            },
            Inst::CountInsns { n } => SOp::CountInsns {
                n: self.operand(*n)?,
            },
            Inst::Halt { code } => SOp::Halt {
                code: self.operand(*code)?,
            },
            Inst::Trace { v } => SOp::Trace {
                v: self.operand(*v)?,
            },
            Inst::Verify { dst, src } => SOp::Verify {
                d: self.var(*dst)?,
                s: self.operand(*src)?,
            },
            Inst::SetNext { args } => {
                let action = self.prog.points[rec as usize].action;
                let plan = self.next_plan(args, action)?;
                self.prog.nexts.push(plan);
                SOp::Next {
                    plan: self.prog.nexts.len() as u32 - 1,
                }
            }
            Inst::LiftVar { v } => {
                self.var(*v)?;
                SOp::Lift
            }
            Inst::LiftGlobal { g } => {
                self.global(*g)?;
                SOp::Lift
            }
            Inst::LiftAgg { loc } => {
                self.agg(*loc)?;
                SOp::Lift
            }
        })
    }

    /// The key plan and parallel move of a `next(...)` closing `action`.
    fn next_plan(&mut self, args: &[KeyArg], action: u32) -> Result<NextPlan, CodegenError> {
        let ActionKind::Index { plan } = &self.actions[action as usize].kind else {
            return Err(err(format!("next(...) closes non-INDEX action {action}")));
        };
        let params = self.prog.params.clone();
        if args.len() != params.len() || plan.len() != params.len() {
            return Err(err(format!(
                "next(...) passes {} argument(s) with a {}-component plan to {} parameter(s)",
                args.len(),
                plan.len(),
                params.len()
            )));
        }
        let mut next_args = Vec::with_capacity(args.len());
        let mut scalar_moves = Vec::new();
        let mut queue_moves: Vec<QueueMove> = Vec::new();
        for ((arg, kp), param) in args.iter().zip(plan).zip(&params) {
            let rt = matches!(kp, KeyPlanArg::ScalarRt | KeyPlanArg::QueueRt);
            match (arg, param) {
                (KeyArg::Scalar(o), Param::Scalar(p)) => {
                    let src = self.operand(*o)?;
                    next_args.push(NextArg::Scalar { src, rt });
                    if src != *p {
                        scalar_moves.push((*p, src));
                    }
                }
                (KeyArg::Queue(loc), Param::Queue(p)) => {
                    let src = self.queue(*loc)?;
                    next_args.push(NextArg::Queue { agg: src, rt });
                    if src != *p {
                        queue_moves.push(QueueMove {
                            dst: *p,
                            src,
                            staged: false,
                        });
                    }
                }
                _ => return Err(err("next(...) argument kind differs from its parameter's")),
            }
        }
        let written: Vec<u32> = queue_moves.iter().map(|m| m.dst).collect();
        for m in &mut queue_moves {
            m.staged = written.contains(&m.src);
        }
        Ok(NextPlan {
            args: next_args.into_boxed_slice(),
            scalar_moves: scalar_moves.into_boxed_slice(),
            queue_moves: queue_moves.into_boxed_slice(),
        })
    }
}

/// Applies `f` to every pc a jump or branch op transfers to (switch
/// tables are patched separately).
fn map_targets(op: &mut SOp, mut f: impl FnMut(u32) -> u32) {
    match op {
        SOp::Jmp { to }
        | SOp::BrNz { to, .. }
        | SOp::BrZ { to, .. }
        | SOp::BrEq { to, .. }
        | SOp::BrNe { to, .. }
        | SOp::BrLt { to, .. }
        | SOp::BrLe { to, .. }
        | SOp::BrGt { to, .. }
        | SOp::BrGe { to, .. } => *to = f(*to),
        SOp::Br { t, f: e, .. } => {
            *t = f(*t);
            *e = f(*e);
        }
        _ => {}
    }
}

/// The fused branch taken when `a op b` holds.
fn compare_branch(op: BinOp, a: Slot, b: Slot, to: u32) -> SOp {
    match op {
        BinOp::Eq => SOp::BrEq { a, b, to },
        BinOp::Ne => SOp::BrNe { a, b, to },
        BinOp::Lt => SOp::BrLt { a, b, to },
        BinOp::Le => SOp::BrLe { a, b, to },
        BinOp::Gt => SOp::BrGt { a, b, to },
        BinOp::Ge => SOp::BrGe { a, b, to },
        _ => unreachable!("only comparisons fuse into branches"),
    }
}

/// The comparison that holds exactly when `op` does not.
fn negate(op: BinOp) -> BinOp {
    match op {
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        BinOp::Lt => BinOp::Ge,
        BinOp::Ge => BinOp::Lt,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        _ => unreachable!("only comparisons fuse into branches"),
    }
}

/// Placeholder destination for discarded results, replaced by the real
/// sink slot once the constant pool is complete.
const SINK: Slot = u32::MAX;

/// Instructions with effects outside the value store: always dynamic by
/// binding-time analysis, so recovery never executes them.
fn is_effect(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::CallExt { .. }
            | Inst::MemLoad { .. }
            | Inst::MemStore { .. }
            | Inst::CountCycles { .. }
            | Inst::CountInsns { .. }
            | Inst::Halt { .. }
            | Inst::Trace { .. }
            | Inst::Verify { .. }
            | Inst::SetNext { .. }
            | Inst::LiftVar { .. }
            | Inst::LiftGlobal { .. }
            | Inst::LiftAgg { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CodegenConfig, CompiledStep};

    const SRC: &str = "val R = array(8){0};
                       fun main(k : int, w : queue) {
                         count_insns(1);
                         R[k % 8] = R[k % 8] + 1;
                         if (R[0] > 3) { w?push_back(k); }
                         if (w?len > 2) { w?pop_front(); }
                         next(k + 1, w);
                       }";

    fn step() -> CompiledStep {
        let mut diags = facile_lang::diag::Diagnostics::new();
        let program = facile_lang::parser::parse(SRC, &mut diags);
        let syms = facile_sema::analyze(&program, &mut diags);
        assert!(!diags.has_errors(), "{}", diags.render_all(SRC));
        let ir = facile_ir::lower::lower(&program, &syms, &mut diags).unwrap();
        compile(ir, &CodegenConfig::default()).expect("valid program compiles")
    }

    fn lower(step: &CompiledStep, ir: &IrProgram) -> Result<SlowProgram, CodegenError> {
        SlowProgram::lower(ir, &step.blocks, &step.actions)
    }

    /// Rewrites the first instruction matching `pick` (and, with
    /// `rt_only`, labeled run-time static) with `edit`.
    fn corrupt(
        step: &CompiledStep,
        ir: &mut IrProgram,
        rt_only: bool,
        pick: impl Fn(&Inst) -> bool,
        edit: impl Fn(&mut Inst),
    ) {
        let (bi, ii) = ir
            .main
            .blocks
            .iter()
            .enumerate()
            .find_map(|(bi, b)| {
                b.insts
                    .iter()
                    .enumerate()
                    .position(|(ii, i)| pick(i) && !(rt_only && step.blocks[bi].insts[ii].dynamic))
                    .map(|ii| (bi, ii))
            })
            .expect("the program has a matching instruction");
        edit(&mut ir.main.blocks[bi].insts[ii]);
    }

    fn rejected(step: &CompiledStep, ir: &IrProgram, what: &str) {
        let e = lower(step, ir).expect_err("malformed IR must not lower");
        assert!(e.rendered.contains(what), "{e}");
    }

    #[test]
    fn well_formed_program_lowers() {
        let s = step();
        let p = &s.slow;
        assert_eq!(p.ops.len(), p.recs.len());
        assert_eq!(p.params, vec![Param::Scalar(0), Param::Queue(0)]);
        // Every dynamic op carries instrumentation, and every action
        // starts exactly once in the program.
        let starts = p.points.iter().filter(|r| r.start != NO_ACTION).count();
        assert_eq!(starts, s.action_count());
        assert!(p.ops.iter().any(|o| matches!(o, SOp::Next { .. })));
        // Lowering is deterministic.
        assert_eq!(lower(&s, &s.ir).unwrap(), s.slow);
    }

    #[test]
    fn out_of_range_variable_is_an_error() {
        let s = step();
        let mut ir = s.ir.clone();
        corrupt(
            &s,
            &mut ir,
            false,
            |i| matches!(i, Inst::Bin { .. }),
            |i| {
                if let Inst::Bin { dst, .. } = i {
                    *dst = VarId(1_000_000);
                }
            },
        );
        rejected(&s, &ir, "variable v1000000 out of range");
    }

    #[test]
    fn out_of_range_global_is_an_error() {
        let s = step();
        let mut ir = s.ir.clone();
        corrupt(
            &s,
            &mut ir,
            false,
            |i| matches!(i, Inst::ElemGet { .. }),
            |i| {
                if let Inst::ElemGet { agg, .. } = i {
                    *agg = Loc::Global(GlobalId(4242));
                }
            },
        );
        rejected(&s, &ir, "aggregate g4242 out of range");
        let mut ir = s.ir.clone();
        corrupt(
            &s,
            &mut ir,
            true,
            |i| matches!(i, Inst::Bin { .. } | Inst::Copy { .. }),
            |i| {
                let dst = i.dst().unwrap();
                *i = Inst::LoadGlobal {
                    dst,
                    g: GlobalId(77),
                };
            },
        );
        rejected(&s, &ir, "global g77 out of range");
    }

    #[test]
    fn out_of_range_block_is_an_error() {
        let s = step();
        let mut ir = s.ir.clone();
        let b = ir
            .main
            .blocks
            .iter_mut()
            .find(|b| matches!(b.term, Terminator::Branch { .. }))
            .expect("the program branches");
        if let Terminator::Branch { then_bb, .. } = &mut b.term {
            *then_bb = BlockId(9_999);
        }
        rejected(&s, &ir, "block bb9999 out of range");
        let mut ir = s.ir.clone();
        ir.main.entry = BlockId(12_345);
        rejected(&s, &ir, "block bb12345 out of range");
    }

    #[test]
    fn out_of_range_token_is_an_error() {
        let s = step();
        let mut ir = s.ir.clone();
        // Replace a run-time-static copy with a fetch of an undeclared
        // token.
        corrupt(
            &s,
            &mut ir,
            true,
            |i| matches!(i, Inst::Copy { .. } | Inst::Bin { .. }),
            |i| {
                let dst = i.dst().unwrap();
                *i = Inst::FetchToken {
                    dst,
                    stream: Operand::Const(0),
                    token: facile_sema::TokenId(31),
                };
            },
        );
        rejected(&s, &ir, "token t31 out of range");
    }

    #[test]
    fn annotation_mismatches_are_errors() {
        let s = step();
        // An action id past the table.
        let mut blocks = s.blocks.clone();
        let a = blocks
            .iter_mut()
            .flat_map(|b| b.insts.iter_mut())
            .find(|a| a.action_start.is_some())
            .unwrap();
        a.action_start = Some(5_000);
        let e = SlowProgram::lower(&s.ir, &blocks, &s.actions).unwrap_err();
        assert!(e.rendered.contains("action 5000 out of range"), "{e}");
        // Annotations for the wrong number of blocks.
        let e = SlowProgram::lower(&s.ir, &s.blocks[1..], &s.actions).unwrap_err();
        assert!(e.rendered.contains("block annotations"), "{e}");
        // An effectful op labeled run-time static.
        let mut blocks = s.blocks.clone();
        let (bi, ii) =
            s.ir.main
                .blocks
                .iter()
                .enumerate()
                .find_map(|(bi, b)| {
                    b.insts
                        .iter()
                        .position(|i| matches!(i, Inst::CountInsns { .. }))
                        .map(|ii| (bi, ii))
                })
                .unwrap();
        blocks[bi].insts[ii].dynamic = false;
        let e = SlowProgram::lower(&s.ir, &blocks, &s.actions).unwrap_err();
        assert!(e.rendered.contains("labeled run-time static"), "{e}");
    }

    #[test]
    fn ops_stay_compact() {
        // Three slots and a tag: the dispatch loop streams 16-byte ops.
        assert_eq!(std::mem::size_of::<SOp>(), 16);
    }

    #[test]
    fn switch_table_targets() {
        let t = SwitchTable {
            cases: vec![(-4, 10), (0, 11), (9, 12)].into_boxed_slice(),
            default: 99,
        };
        assert_eq!(t.target(-4), 10);
        assert_eq!(t.target(9), 12);
        assert_eq!(t.target(1), 99);
    }
}
