//! Proves the slow engine's steady state is allocation-free.
//!
//! A counting global allocator (this integration test is its own binary,
//! so the allocator is private to it) watches windows of the paper's
//! out-of-order simulator (`ooo.fac`) running a generated gcc-like
//! program:
//!
//! * with memoization off, slow steps run the pre-decoded op program on
//!   the machine state and hand `next(...)`'s arguments straight to
//!   `main`'s parameters — zero heap allocations per step;
//! * with memoization on, recording steps allocate only where the action
//!   cache grows: each recorded INDEX node's link state (the next key
//!   and dynamic signature its cursor owns), new entries, and the
//!   amortized growth of the cache's own tables.

use facile_codegen::{compile, CodegenConfig, CompiledStep};
use facile_ir::lower::lower;
use facile_lang::diag::Diagnostics;
use facile_lang::parser::parse;
use facile_runtime::Target;
use facile_vm::engine::{ArgValue, SimOptions, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, n)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide: tests take turns so no window counts
/// another test's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

/// `ooo.fac` after the shared TRISC description, as `facile` builds it.
fn ooo() -> CompiledStep {
    let src = format!(
        "{}\n{}",
        include_str!("../../core/sims/trisc.fac"),
        include_str!("../../core/sims/ooo.fac")
    );
    let mut diags = Diagnostics::new();
    let prog = parse(&src, &mut diags);
    let syms = facile_sema::analyze(&prog, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render_all(&src));
    let ir = lower(&prog, &syms, &mut diags).expect("lowering succeeds");
    compile(ir, &CodegenConfig::default()).expect("codegen succeeds")
}

/// The out-of-order model over a gcc-like program. Externals stay
/// unbound (latency 0, predict not-taken): timing changes, the
/// instruction stream does not.
fn sim(memoize: bool) -> Simulation {
    let w = facile_workloads::by_name("126.gcc").expect("gcc-like workload");
    let image = facile_workloads::build_image(&w, 0.05);
    let entry = image.entry as i64;
    let mut args = vec![ArgValue::Queue(vec![0; 32])];
    args.extend((0..5).map(|_| ArgValue::Queue(vec![])));
    args.extend([ArgValue::Scalar(0), ArgValue::Scalar(entry)]);
    Simulation::new(
        ooo(),
        Target::load(&image),
        &args,
        SimOptions {
            memoize,
            // Trace compilation allocates by design (off the burst-exit
            // path; see `alloc_free_replay`); keep it out of the
            // recording windows.
            supertrace: false,
            ..SimOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn steady_state_slow_steps_allocate_nothing() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = sim(false);
    // Warm up: the slow scratch and the `next(...)` staging buffer, the
    // queues' capacities and the program's touched data pages reach
    // their steady state.
    s.run_steps(100_000);
    let warm = *s.stats();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    s.run_steps(20_000);
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let st = s.stats();
    assert!(s.halted().is_none(), "the window ran into the halt");
    assert_eq!(st.slow_steps - warm.slow_steps, 20_000);
    assert_eq!(st.fast_steps, 0);
    assert_eq!(
        allocs, 0,
        "memo-off slow steps performed {allocs} heap allocations in 20000 steps"
    );
}

#[test]
fn recording_steps_allocate_only_for_cache_growth() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut s = sim(true);
    s.run_steps(2_000);
    let (warm, c0) = (*s.stats(), s.cache_stats());
    let a0 = ALLOCS.load(Ordering::Relaxed);
    s.run_steps(2_000);
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let (st, c) = (*s.stats(), s.cache_stats());
    let slow = st.slow_steps - warm.slow_steps;
    let nodes = c.nodes_created - c0.nodes_created;
    let entries = c.entries_created - c0.entries_created;
    eprintln!("recording window: {allocs} allocations, {slow} slow steps, {nodes} nodes, {entries} entries");
    assert!(
        slow > 500,
        "the window must be dominated by recording ({slow} slow steps)"
    );
    // At most one allocation per node or entry the cache created: a
    // node's successor list, an INDEX cursor's key and signature, an
    // entry's key, and amortized table growth. Key building, group
    // data, signatures and parameter hand-off must not allocate.
    assert!(
        allocs <= nodes + entries,
        "{allocs} allocations in {slow} recording steps that created {nodes} nodes \
         and {entries} entries"
    );
}
