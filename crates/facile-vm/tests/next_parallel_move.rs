//! `next(...)` hands its arguments to `main`'s parameters as a parallel
//! move. With memoization off the slow engine writes them straight into
//! the parameters instead of building and decoding a key, so a step that
//! permutes its own parameters — swapping two scalars, swapping two
//! queues, passing a non-parameter queue in a parameter's slot — must
//! read every source before writing any parameter. A naive in-place write
//! gets these steps wrong.
//!
//! The program's trace is checked against a reference model of the same
//! step, and the trace, counters and memory digest must be identical
//! with memoization off, on, and on with supertraces off.

use facile_codegen::{compile, CodegenConfig, CompiledStep};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::{HaltReason, Image, Target};
use facile_vm::engine::{ArgValue, SimOptions, Simulation};
use std::collections::VecDeque;

const SRC: &str = "val g : queue;
    fun main(a : int, b : int, p : queue, q : queue, k : int) {
        count_insns(1);
        val c = mem_ld(0);
        mem_st(0, c + 1);
        trace(a * 1000 + b * 10 + k);
        trace(p?len * 100 + q?len * 10 + g?len);
        trace(p?front * 100 + q?back);
        p?push_back(a);
        if (p?len > 3) { p?pop_front(); }
        g?push_back(b + k);
        if (g?len > 2) { g?pop_front(); }
        count_cycles(1 + k % 2);
        mem_st1(64 + c % 16, a + b);
        if (c >= 300) { sim_halt(); }
        if (k == 0) {
            next(b, a, q, p, 1);
        } else {
            if (k == 1) {
                next((a + 1) % 5, b, g, q, 2);
            } else {
                next(b, (a + b) % 7, q, p, 0);
            }
        }
    }";

fn build() -> CompiledStep {
    let mut diags = Diagnostics::new();
    let prog = parse(SRC, &mut diags);
    let syms = facile_sema::analyze(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(SRC));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
}

/// The step function in plain Rust: the trace it must produce.
fn reference_trace() -> Vec<i64> {
    let (mut a, mut b, mut k) = (1i64, 2i64, 0i64);
    let (mut p, mut q, mut g) = (VecDeque::new(), VecDeque::from([4i64, 9]), VecDeque::new());
    let mut out = Vec::new();
    for c in 0..=300 {
        let front = |d: &VecDeque<i64>| d.front().copied().unwrap_or(0);
        let back = |d: &VecDeque<i64>| d.back().copied().unwrap_or(0);
        out.push(a * 1000 + b * 10 + k);
        out.push(p.len() as i64 * 100 + q.len() as i64 * 10 + g.len() as i64);
        out.push(front(&p) * 100 + back(&q));
        p.push_back(a);
        if p.len() > 3 {
            p.pop_front();
        }
        g.push_back(b + k);
        if g.len() > 2 {
            g.pop_front();
        }
        if c >= 300 {
            break;
        }
        (a, b, p, q, k) = match k {
            0 => (b, a, q, p, 1),
            1 => ((a + 1) % 5, b, g.clone(), q, 2),
            _ => (b, (a + b) % 7, q, p, 0),
        };
    }
    out
}

fn run(step: &CompiledStep, memoize: bool, supertrace: bool) -> Simulation {
    let mut sim = Simulation::new(
        step.clone(),
        Target::load(&Image::default()),
        &[
            ArgValue::Scalar(1),
            ArgValue::Scalar(2),
            ArgValue::Queue(vec![]),
            ArgValue::Queue(vec![4, 9]),
            ArgValue::Scalar(0),
        ],
        SimOptions {
            memoize,
            supertrace,
            supertrace_threshold: 8,
            ..SimOptions::default()
        },
    )
    .unwrap();
    assert_eq!(sim.run_steps(10_000), Some(HaltReason::Explicit));
    sim
}

#[test]
fn permuting_next_matches_the_reference_in_every_mode() {
    let step = build();
    let plain = run(&step, false, false);
    assert_eq!(plain.trace(), reference_trace().as_slice());
    let memo = run(&step, true, true);
    assert!(
        memo.stats().fast_steps > 0,
        "the memoized run must fast-forward"
    );
    for (label, other) in [
        ("memo on", memo),
        ("supertrace off", run(&step, true, false)),
    ] {
        assert_eq!(other.trace(), plain.trace(), "{label}: trace");
        let (s, o) = (plain.stats(), other.stats());
        assert_eq!(
            (o.insns, o.cycles, o.ext_calls),
            (s.insns, s.cycles, s.ext_calls),
            "{label}: counters"
        );
        assert_eq!(
            other.memory().digest(),
            plain.memory().digest(),
            "{label}: memory digest"
        );
    }
}
