//! Miss recovery (paper §2.1, §4.3).
//!
//! When the fast simulator hits an action-cache miss mid-entry, dynamic
//! state has already advanced past the start of the step, so the slow
//! simulator cannot simply restart. The paper's recovery re-runs the slow
//! simulator in a mode where dynamic statements are guarded off and
//! dynamic result tests read the values the fast simulator pushed onto a
//! *recovery stack*; §6.3 (optimization 2) proposes compiling this mode as
//! a separate function.
//!
//! Here that separate function is the slow engine's op program run in
//! its recovery mode ([`crate::slow`]): it re-executes only the
//! run-time-static slice of the step — on a shadow store re-seeded from
//! the entry key, reading nothing from the real state — steering
//! through dynamic result tests with the recorded values. When the
//! recovery stack is exhausted (the miss point), every shadow slot that is
//! run-time static *at that point* is committed to the real state, and
//! normal slow execution resumes there. Dynamic slots keep the values the
//! fast engine wrote, which is exactly the paper's hand-off of dynamic
//! data through shared storage.

use crate::fast::Replayed;
use crate::slow::{run, seed_params, Exit, SlowScratch, RECOVER};
use crate::state::{MachineState, ShadowState};
use facile_codegen::CompiledStep;
use facile_ir::ir::VarKind;
use facile_obs::TraceEvent;
use facile_runtime::key::Key;

/// How a recovery attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryErrorKind {
    /// The recovery stack ran out before the recorded actions did.
    Underflow,
    /// A stack item's action number disagrees with the recorded one.
    Mismatch {
        /// Action number the recorded program reached.
        expected: u32,
        /// Action number found on the recovery stack.
        found: u32,
    },
    /// The step reached its end (or its INDEX action) before the stack
    /// was consumed (extra trailing items — the dual of
    /// [`Underflow`](Self::Underflow)).
    Overrun,
}

/// A diagnosed recovery failure: the recovery stack disagrees with the
/// recorded action numbers — the consistency check the paper calls
/// "useful to ensure that the fast and slow simulators communicate
/// correctly". Surfaced by the driver as a [`facile_runtime::HaltReason::Fault`]
/// instead of aborting the process, so embedding hosts (batch lanes,
/// servers) survive a corrupted replay stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryError {
    /// What went wrong.
    pub kind: RecoveryErrorKind,
    /// Action number the recovery engine was consuming when it failed.
    pub action: u32,
    /// Logical step count at the failed recovery.
    pub step: u64,
    /// Recovery-stack depth handed to the attempt.
    pub depth: usize,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            RecoveryErrorKind::Underflow => write!(
                f,
                "recovery stack underflow at action {} (step {}, depth {})",
                self.action, self.step, self.depth
            ),
            RecoveryErrorKind::Mismatch { expected, found } => write!(
                f,
                "recovery stack action mismatch at step {}: recorded {expected}, stack has {found} (depth {})",
                self.step, self.depth
            ),
            RecoveryErrorKind::Overrun => write!(
                f,
                "recovery stack overrun: step ended with items left (step {}, depth {})",
                self.step, self.depth
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Re-executes the run-time-static slice and commits it; returns the pc
/// of the step's slow program where normal slow execution resumes.
///
/// This convenience entry builds a fresh shadow store; the simulation
/// driver keeps one and reuses it across recoveries.
///
/// # Errors
///
/// Returns a [`RecoveryError`] if the recovery stack disagrees with the
/// recorded action numbers (underflow, action mismatch or overrun). The
/// real state is untouched in that case — commits only happen at the
/// final consistent item — so the driver can surface a diagnosed fault.
pub fn recover(
    step: &CompiledStep,
    st: &mut MachineState,
    entry_key: &Key,
    replayed: &[Replayed],
) -> Result<u32, RecoveryError> {
    let mut shadow = ShadowState::new(step);
    recover_in(
        step,
        st,
        &mut shadow,
        &mut SlowScratch::default(),
        entry_key,
        replayed,
    )
}

/// [`recover`] on a caller-owned shadow and scratch: the slow program
/// runs in recovery mode from the step entry on the shadow, seeded from
/// `entry_key`, and at the miss point every slot that is run-time static
/// (and live) there is committed to the real state.
pub(crate) fn recover_in(
    step: &CompiledStep,
    st: &mut MachineState,
    shadow: &mut ShadowState,
    scratch: &mut SlowScratch,
    entry_key: &Key,
    replayed: &[Replayed],
) -> Result<u32, RecoveryError> {
    assert!(
        !replayed.is_empty(),
        "recovery needs at least the miss action"
    );
    let prog = &step.slow;
    let step_no = st.obs_step();
    if st.obs.enabled() {
        st.obs.emit(TraceEvent::RecoveryBegin {
            step: step_no,
            depth: replayed.len() as u64,
        });
    }
    shadow.reset(prog);
    seed_params(prog, shadow.frame(), entry_key, &mut scratch.vals);
    let exit = {
        let (_, mut world) = st.split();
        run::<RECOVER>(prog, shadow.frame(), &mut world, scratch, None, replayed, 0)
    };
    match exit {
        Exit::Resume { pc, action } => {
            commit(step, st, shadow, action, step_no);
            Ok(pc)
        }
        Exit::Fault { kind, action } => Err(RecoveryError {
            kind,
            action,
            step: step_no,
            depth: replayed.len(),
        }),
        Exit::Next | Exit::Halted => unreachable!("recovery skips every effectful op"),
    }
}

/// Copies every slot that is run-time static (and live) after `action`
/// from the shadow to the real state, then announces the end of the
/// recovery (with the number of slots committed) to the observer.
fn commit(
    step: &CompiledStep,
    st: &mut MachineState,
    shadow: &ShadowState,
    action: u32,
    step_no: u64,
) {
    let code = &step.actions[action as usize];
    for &v in code.known_vars_after.iter() {
        st.regs[v.index()] = shadow.regs[v.index()];
    }
    for &v in code.known_aggs_after.iter() {
        let slot = st.layout.var_slot[v.index()] as usize;
        st.aggs[slot].copy_from(&shadow.aggs[slot]);
    }
    for &g in code.known_globals_after.iter() {
        match step.ir.globals[g.index()].kind() {
            VarKind::Scalar => st.gscalars[g.index()] = shadow.gscalars[g.index()],
            _ => {
                let slot = st.layout.global_slot[g.index()] as usize;
                st.aggs[slot].copy_from(&shadow.aggs[slot]);
            }
        }
    }
    if st.obs.enabled() {
        let committed = code.known_vars_after.len()
            + code.known_aggs_after.len()
            + code.known_globals_after.len();
        st.obs.emit(TraceEvent::RecoveryEnd {
            step: step_no,
            action,
            committed: committed as u64,
        });
    }
}
