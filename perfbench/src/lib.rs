//! The repository benchmark: the paper's Figure 12 out-of-order
//! simulator (`ooo.fac`) compiled and run over generated SPEC95-shaped
//! programs in four engine regimes. See `README.md` beside this crate
//! for the workloads, the metrics and what each layer metric should
//! move.

pub mod alloc;
pub mod calib;
pub mod trace;

use calib::RefClock;
use facile::hosts::{initial_args, ArchHost};
use facile::{
    compile_source, snapshot, CachePolicy, CompiledStep, CompilerOptions, HaltReason, ObsConfig,
    ObsHandle, SimOptions, Simulation, Target,
};
use facile_workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use trace::{Layer, Tracer};

/// The benchmark's workloads, in the order the README lists them.
pub const WORKLOADS: [&str; 4] = ["cold-int", "cold-fp", "warm-int", "slow-only"];

/// Program scale (outer-loop multiplier) of every job.
pub const SCALE: f64 = 0.1;

/// Action-cache cap of the capped `gcc` jobs: about half of the
/// 30 MiB an unbounded cold `gcc` run memoizes at [`SCALE`].
const GCC_CAP: u64 = 15 << 20;

/// One program run to halt under one engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Name printed with failures and reports.
    pub label: &'static str,
    /// `facile_workloads` program name (suffix match).
    pub program: &'static str,
    /// Memoization (fast-forwarding) on.
    pub memoize: bool,
    /// Action-cache capacity in bytes (`None`: unbounded).
    pub capacity: Option<u64>,
    /// Policy applied when the capacity is exceeded.
    pub policy: CachePolicy,
    /// Start from a snapshot of a cold run of the same job.
    pub warm: bool,
}

const fn job(label: &'static str, program: &'static str, memoize: bool, warm: bool) -> Job {
    Job {
        label,
        program,
        memoize,
        capacity: None,
        policy: CachePolicy::Clear,
        warm,
    }
}

/// The jobs of a workload and the number of generated variants of
/// each job's program, or `None` for an unknown name. Programs of one
/// shape still differ in speed and memory from seed to seed; running
/// several variants per job averages that out, so a run's figures
/// vary less from seed to seed.
fn jobs(workload: &str) -> Option<(Vec<Job>, u32)> {
    let capped = |label, policy| Job {
        capacity: Some(GCC_CAP),
        policy,
        ..job(label, "gcc", true, false)
    };
    Some(match workload {
        "cold-int" => (
            vec![
                job("go", "go", true, false),
                capped("gcc/clear", CachePolicy::Clear),
                capped("gcc/generational", CachePolicy::Generational),
            ],
            1,
        ),
        "cold-fp" => (
            vec![
                job("mgrid", "mgrid", true, false),
                job("fpppp", "fpppp", true, false),
                job("tomcatv", "tomcatv", true, false),
            ],
            8,
        ),
        "warm-int" => (
            vec![job("go", "go", true, true), job("gcc", "gcc", true, true)],
            3,
        ),
        "slow-only" => (
            vec![
                job("go", "go", false, false),
                job("mgrid", "mgrid", false, false),
            ],
            1,
        ),
        _ => return None,
    })
}

/// Variant `variant` of the program `name` for workload seed `seed`.
/// `facile_workloads` derives its generator seed from `Workload::name`,
/// so a variant is the program renamed, with every shape knob kept.
/// Variant 0 of seed 0 is the suite's own program.
fn program(name: &str, seed: u64, variant: u32) -> Workload {
    let mut w = facile_workloads::by_name(name).expect("job programs are in the suite");
    let renamed = match (seed, variant) {
        (0, 0) => return w,
        (s, 0) => format!("{}#{s}", w.name),
        (s, v) => format!("{}#{s}.{v}", w.name),
    };
    w.name = Box::leak(renamed.into_boxed_str());
    w
}

/// The runs of `workload` for `seed` at program scale `scale`
/// ([`SCALE`] when measuring), variant by variant, with empty
/// references; `None` for an unknown workload.
pub fn plan(workload: &str, seed: u64, scale: f64) -> Option<Vec<Prepared>> {
    let (jobs, variants) = jobs(workload)?;
    let mut plan = Vec::new();
    for variant in 0..variants {
        for &job in &jobs {
            plan.push(Prepared {
                job,
                variant,
                program: program(job.program, seed, variant),
                scale,
                reference: Reference::default(),
                snapshot: None,
            });
        }
    }
    Some(plan)
}

/// Expected results of a job, from simulators outside the code under
/// test: outputs and instruction count from the ISA interpreter, cycles
/// from the hand-written out-of-order simulator without memoization,
/// which agrees with `ooo.fac` cycle for cycle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reference {
    /// Values the program emitted with `out`.
    pub out: Vec<i64>,
    /// Retired instructions.
    pub insns: u64,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Upper bound on reference instructions: every program halts long
/// before it.
const MAX_INSNS: u64 = 1 << 32;

/// Computes a program's reference results.
///
/// # Panics
///
/// Panics if a reference simulator does not halt.
pub fn reference(program: &Workload, scale: f64) -> Reference {
    let image = facile_workloads::build_image(program, scale);
    let mut target = Target::load(&image);
    let mut cpu = facile_isa::interp::Cpu::new(&target);
    cpu.run(&mut target, MAX_INSNS);
    assert!(cpu.halted, "{}: interpreter did not halt", program.name);
    let mut fs = fastsim::FastSim::new(&image, false, None);
    fs.run(MAX_INSNS);
    assert!(fs.halted(), "{}: fastsim did not halt", program.name);
    Reference {
        out: cpu.out,
        insns: cpu.insns,
        cycles: fs.stats.cycles,
    }
}

/// A job ready to run: its program, expected results and, for a warm
/// job, the snapshot file produced during preparation.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The job.
    pub job: Job,
    /// Which variant of the job's program.
    pub variant: u32,
    /// The seeded program.
    pub program: Workload,
    /// The program's scale.
    pub scale: f64,
    /// Expected results.
    pub reference: Reference,
    /// Snapshot file of a warm job.
    pub snapshot: Option<PathBuf>,
}

impl Prepared {
    /// The job's label with its variant.
    pub fn label(&self) -> String {
        format!("{}#{}", self.job.label, self.variant)
    }
}

/// Exact work counters of a job. Host-independent: two runs of the
/// same code give identical counters, traced or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Retired target instructions.
    pub insns: u64,
    /// Target instructions retired by the fast engine.
    pub fast_insns: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Fast-engine steps.
    pub fast_steps: u64,
    /// Slow-engine steps.
    pub slow_steps: u64,
    /// Action-cache misses.
    pub misses: u64,
    /// Miss recoveries.
    pub recoveries: u64,
    /// Actions replayed by the fast engine.
    pub actions_replayed: u64,
    /// External calls.
    pub ext_calls: u64,
    /// Action-cache nodes created.
    pub nodes_created: u64,
    /// Bytes ever memoized.
    pub bytes_total: u64,
    /// High-water mark of memoized bytes.
    pub bytes_peak: u64,
    /// Snapshot bytes installed by a warm start.
    pub bytes_frozen: u64,
    /// Wholesale cache clears.
    pub clears: u64,
    /// Generations evicted.
    pub evictions: u64,
    /// Supertraces compiled.
    pub trace_built: u64,
    /// Supertrace entries that left through a failed guard.
    pub trace_bails: u64,
    /// Steps executed inside supertraces.
    pub trace_steps: u64,
    /// Heap allocations made by `run_steps`.
    pub allocs: u64,
}

impl Counters {
    fn of(sim: &Simulation, allocs: u64) -> Counters {
        let s = sim.stats();
        let c = sim.cache_stats();
        let t = sim.trace_stats();
        Counters {
            insns: s.insns,
            fast_insns: s.fast_insns,
            cycles: s.cycles,
            fast_steps: s.fast_steps,
            slow_steps: s.slow_steps,
            misses: s.misses,
            recoveries: s.recoveries,
            actions_replayed: s.actions_replayed,
            ext_calls: s.ext_calls,
            nodes_created: c.nodes_created,
            bytes_total: c.bytes_total,
            bytes_peak: c.bytes_peak,
            bytes_frozen: c.bytes_frozen,
            clears: c.clears,
            evictions: c.evictions,
            trace_built: t.built,
            trace_bails: t.bails,
            trace_steps: t.steps,
            allocs,
        }
    }

    /// Field-wise sum; `bytes_peak` takes the maximum.
    pub fn add(&mut self, o: &Counters) {
        self.insns += o.insns;
        self.fast_insns += o.fast_insns;
        self.cycles += o.cycles;
        self.fast_steps += o.fast_steps;
        self.slow_steps += o.slow_steps;
        self.misses += o.misses;
        self.recoveries += o.recoveries;
        self.actions_replayed += o.actions_replayed;
        self.ext_calls += o.ext_calls;
        self.nodes_created += o.nodes_created;
        self.bytes_total += o.bytes_total;
        self.bytes_peak = self.bytes_peak.max(o.bytes_peak);
        self.bytes_frozen += o.bytes_frozen;
        self.clears += o.clears;
        self.evictions += o.evictions;
        self.trace_built += o.trace_built;
        self.trace_bails += o.trace_bails;
        self.trace_steps += o.trace_steps;
        self.allocs += o.allocs;
    }

    /// The counters as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"insns\":{},\"fast_insns\":{},\"cycles\":{},\"fast_steps\":{},\"slow_steps\":{},\
             \"misses\":{},\"recoveries\":{},\"actions_replayed\":{},\"ext_calls\":{},\
             \"nodes_created\":{},\"bytes_total\":{},\"bytes_peak\":{},\"bytes_frozen\":{},\
             \"clears\":{},\"evictions\":{},\"trace_built\":{},\"trace_bails\":{},\
             \"trace_steps\":{},\"allocs\":{}}}",
            self.insns,
            self.fast_insns,
            self.cycles,
            self.fast_steps,
            self.slow_steps,
            self.misses,
            self.recoveries,
            self.actions_replayed,
            self.ext_calls,
            self.nodes_created,
            self.bytes_total,
            self.bytes_peak,
            self.bytes_frozen,
            self.clears,
            self.evictions,
            self.trace_built,
            self.trace_bails,
            self.trace_steps,
            self.allocs
        )
    }
}

/// What one job did.
#[derive(Clone, Debug, Default)]
pub struct JobOutcome {
    /// Host seconds of the job's set-up: assembly, construction,
    /// binding and (warm) snapshot load.
    pub setup_s: f64,
    /// Host seconds inside `run_steps`, over all slices.
    pub run_s: f64,
    /// The same in reference seconds (see [`RefClock`]).
    pub run_ref_s: f64,
    /// `run_steps` calls made.
    pub slices: u64,
    /// Work counters (zero when the job failed before running).
    pub counters: Counters,
    /// Snapshot file size of a warm job.
    pub snapshot_bytes: u64,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

/// Runs `f` in a span of `layer` when tracing.
fn span<R>(tr: Option<&Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(layer, f),
        None => f(),
    }
}

/// Compiles `ooo.fac`. Untraced, this is `compile_source`; traced, the
/// same pipeline is called stage by stage inside spans.
///
/// # Errors
///
/// The rendered diagnostics of a failed compile.
pub fn compile(tr: Option<&Tracer>) -> Result<CompiledStep, String> {
    let src = facile::sims::ooo_source();
    let Some(tr) = tr else {
        return compile_source(&src, &CompilerOptions::default()).map_err(|e| e.rendered);
    };
    tr.span(Layer::Compile, || {
        let mut diags = facile_lang::Diagnostics::new();
        let program = tr.span(Layer::Parse, || facile_lang::parse(&src, &mut diags));
        let syms = tr.span(Layer::Analyze, || {
            facile_sema::analyze(&program, &mut diags)
        });
        let ir = tr.span(Layer::Lower, || {
            facile_ir::lower::lower(&program, &syms, &mut diags)
        });
        let ir = match ir {
            Some(ir) if !diags.has_errors() => ir,
            _ => return Err(diags.render_all(&src)),
        };
        tr.span(Layer::Verify, || facile_ir::verify::verify(&ir))
            .map_err(|errs| errs.join("\n"))?;
        tr.span(Layer::Codegen, || {
            facile_codegen::compile(ir, &CompilerOptions::default().codegen)
        })
        .map_err(|e| e.to_string())
    })
}

/// Steps allowed per reference instruction before a job counts as not
/// halting (the out-of-order model takes about one step per
/// instruction).
const STEPS_PER_INSN: u64 = 4;

/// Steps per `run_steps` call. Each job runs to halt in slices of this
/// many steps, as `facilec`'s timeline mode drives runs, so that the
/// host speed can be calibrated between slices: the host's speed moves
/// within a second, and a calibration taken only before and after a
/// two-second run does not follow it. Slicing changes only where replay
/// bursts end, so only the supertrace counters differ from one unsliced
/// call (see `README.md`).
const SLICE_STEPS: u64 = 20_000;

/// Runs one job: set-up, then `run_steps` to halt in slices, then the
/// output check, each timed piece calibrated on `clock`. Panics and
/// errors become the outcome's failure.
pub fn run_job(
    step: &Arc<CompiledStep>,
    p: &Prepared,
    tr: Option<&Tracer>,
    clock: &mut RefClock,
) -> JobOutcome {
    let mut out = JobOutcome::default();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_job_inner(step, p, tr, clock, &mut out)
    }));
    out.failure = match result {
        Ok(Ok(())) => None,
        Ok(Err(e)) => Some(e),
        Err(panic) => Some(format!(
            "panicked: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string payload)")
        )),
    };
    out
}

fn run_job_inner(
    step: &Arc<CompiledStep>,
    p: &Prepared,
    tr: Option<&Tracer>,
    clock: &mut RefClock,
    out: &mut JobOutcome,
) -> Result<(), String> {
    let (sim, host_s, _) = clock.time(|| setup_job(step, p, tr, out));
    out.setup_s = host_s;
    let mut sim = sim?;

    let budget = p.reference.insns.saturating_mul(STEPS_PER_INSN) + 10_000;
    let allocs0 = alloc::allocs();
    let mut halt = None;
    for _ in 0..budget.div_ceil(SLICE_STEPS) {
        let (h, host_s, ref_s) = clock.time(|| span(tr, Layer::Run, || sim.run_steps(SLICE_STEPS)));
        out.run_s += host_s;
        out.run_ref_s += ref_s;
        out.slices += 1;
        if h.is_some() {
            halt = h;
            break;
        }
    }
    out.counters = Counters::of(&sim, alloc::allocs() - allocs0);
    check(&sim, p, halt, &out.counters)
}

/// A job's set-up: the program assembled, the simulation constructed
/// with its externals bound and, for a warm job, the snapshot loaded.
fn setup_job(
    step: &Arc<CompiledStep>,
    p: &Prepared,
    tr: Option<&Tracer>,
    out: &mut JobOutcome,
) -> Result<Simulation, String> {
    let image = span(tr, Layer::Assemble, || {
        facile_workloads::build_image(&p.program, p.scale)
    });
    let options = SimOptions {
        memoize: p.job.memoize,
        cache_capacity: p.job.capacity,
        cache_policy: p.job.policy,
        ..SimOptions::default()
    };
    let mut sim = span(tr, Layer::Construct, || {
        let mut sim = Simulation::new(
            step.clone(),
            Target::load(&image),
            &initial_args::ooo(image.entry),
            options,
        )?;
        let host = ArchHost::new();
        match tr {
            None => host.bind(&mut sim)?,
            Some(t) => {
                t.bind_arch(&host, &mut sim)?;
                let obs = ObsHandle::new(ObsConfig {
                    trace: false,
                    ring_capacity: 1,
                    metrics: false,
                    ..ObsConfig::default()
                });
                obs.subscribe(t.observer());
                sim.attach_obs(obs);
            }
        }
        Ok::<_, facile::SimError>(sim)
    })
    .map_err(|e| e.to_string())?;
    if p.job.warm {
        let path = p.snapshot.as_ref().ok_or("no snapshot was produced")?;
        let snap = span(tr, Layer::SnapParse, || {
            let bytes = std::fs::read(path).map_err(|e| format!("snapshot unreadable: {e}"))?;
            out.snapshot_bytes = bytes.len() as u64;
            snapshot::parse(&bytes).map_err(|e| format!("snapshot rejected: {e}"))
        })?;
        span(tr, Layer::SnapValidate, || snap.validate(&sim))
            .map_err(|e| format!("snapshot rejected: {e}"))?;
        span(tr, Layer::SnapInstall, || sim.warm_start(snap.image()))
            .map_err(|e| format!("snapshot not installed: {e}"))?;
    }
    Ok(sim)
}

/// The output check: an explicit halt, and outputs, instructions and
/// cycles equal to the reference. A warm job must also never leave the
/// snapshot's recorded paths.
fn check(
    sim: &Simulation,
    p: &Prepared,
    halt: Option<HaltReason>,
    c: &Counters,
) -> Result<(), String> {
    match halt {
        Some(HaltReason::Explicit) => {}
        Some(HaltReason::Fault) => {
            return Err(format!(
                "halted by fault: {}",
                sim.fault()
                    .map_or("(undiagnosed)".to_owned(), |f| f.to_string())
            ))
        }
        other => return Err(format!("did not halt explicitly: {other:?}")),
    }
    let r = &p.reference;
    if sim.trace() != r.out.as_slice() {
        return Err(format!("outputs {:?}, expected {:?}", sim.trace(), r.out));
    }
    if c.insns != r.insns {
        return Err(format!("{} instructions, expected {}", c.insns, r.insns));
    }
    if c.cycles != r.cycles {
        return Err(format!("{} cycles, expected {}", c.cycles, r.cycles));
    }
    if p.job.warm && c.slow_steps > 0 {
        return Err(format!("warm run took {} slow steps", c.slow_steps));
    }
    Ok(())
}

/// Produces the snapshot a warm job starts from: a cold run of the same
/// program and cache configuration, saved with `snapshot::save`.
///
/// # Errors
///
/// A failed, panicking or non-halting cold run.
pub fn make_snapshot(step: &Arc<CompiledStep>, p: &Prepared) -> Result<Vec<u8>, String> {
    let cold = Prepared {
        job: Job {
            warm: false,
            ..p.job
        },
        ..p.clone()
    };
    catch_unwind(AssertUnwindSafe(|| {
        let mut sim = setup_job(step, &cold, None, &mut JobOutcome::default())?;
        let budget = cold.reference.insns.saturating_mul(STEPS_PER_INSN) + 10_000;
        let halt = sim.run_steps(budget);
        check(&sim, &cold, halt, &Counters::of(&sim, 0))?;
        Ok(snapshot::save(&sim))
    }))
    .unwrap_or_else(|_| Err("cold run panicked".to_owned()))
}

/// One repetition of a workload: compile `ooo.fac`, then set up and run
/// each job in turn. Run times are also taken in reference seconds (see
/// [`RefClock`]); set-up times only in host seconds, because set-up
/// work (compiling, page faults, reading snapshot files) does not
/// follow the calibration: over three sets of runs it moved by 6-20% in
/// host seconds and by 19-34% in reference seconds.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Host seconds of the compile plus every job's set-up.
    pub setup_s: f64,
    /// Host seconds inside `run_steps`, over all jobs.
    pub run_s: f64,
    /// The same in reference seconds.
    pub run_ref_s: f64,
    /// Actions in the compiled step.
    pub actions: usize,
    /// Per-job outcomes, in job order (empty if compilation failed).
    pub jobs: Vec<JobOutcome>,
    /// Set when `ooo.fac` failed to compile.
    pub compile_error: Option<String>,
}

impl Rep {
    /// From the start of set-up to the last job's halt, without the
    /// calibration and output checks between the timed pieces: host
    /// set-up seconds plus reference run seconds.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_ref_s
    }

    /// Host seconds per reference second of running.
    pub fn slowdown(&self) -> f64 {
        self.run_s / self.run_ref_s
    }

    /// Simulated instructions per reference second of `run_steps`, over
    /// the jobs that did not fail (`None` if all failed).
    pub fn insns_per_s(&self) -> Option<f64> {
        let (insns, secs) = self
            .jobs
            .iter()
            .filter(|o| o.failure.is_none())
            .fold((0, 0.0), |(i, s), o| {
                (i + o.counters.insns, s + o.run_ref_s)
            });
        (secs > 0.0).then(|| insns as f64 / secs)
    }

    /// Counters summed over jobs.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for j in &self.jobs {
            c.add(&j.counters);
        }
        c
    }
}

/// Runs one repetition of `jobs`, traced when `tr` is given.
pub fn run_rep(jobs: &[Prepared], tr: Option<&Tracer>) -> Rep {
    span(tr, Layer::Rep, || {
        let mut rep = Rep::default();
        let mut clock = RefClock::new();
        let (compiled, host_s, _) = clock.time(|| catch_unwind(AssertUnwindSafe(|| compile(tr))));
        rep.setup_s = host_s;
        let step = match compiled {
            Ok(Ok(step)) => Arc::new(step),
            Ok(Err(e)) => {
                rep.compile_error = Some(e);
                return rep;
            }
            Err(_) => {
                rep.compile_error = Some("compiler panicked".to_owned());
                return rep;
            }
        };
        rep.actions = step.action_count();
        for p in jobs {
            let o = run_job(&step, p, tr, &mut clock);
            rep.setup_s += o.setup_s;
            rep.run_s += o.run_s;
            rep.run_ref_s += o.run_ref_s;
            rep.jobs.push(o);
        }
        rep
    })
}
