//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untimed preparation runs in a child process (this binary with
//! `--prepare`): reference results for every job and, on `warm-int`,
//! the snapshot each warm job starts from. The measuring process then
//! repeats the workload until `--seconds` have passed, so its peak
//! resident memory covers set-up and runs only. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced repetitions and prints the per-layer metrics.
//! End-to-end times are in reference seconds (see `perfbench::calib`).
//! The last line of standard output is one JSON object.

use perfbench::calib::RefClock;
use perfbench::trace::{Layer, LayerTimes, Tracer};
use perfbench::{alloc, plan, reference, run_job, run_rep, Prepared, Rep, SCALE, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Preparation files go under this directory of the working directory,
/// one subdirectory per measuring process, removed when it ends.
const WORK_DIR: &str = ".perfbench_work";
/// The traced run writes its spans under this directory.
const OUT_DIR: &str = ".perfbench_out";
/// Untraced repetitions measured at least, however short `--seconds`
/// is.
const MIN_REPS: usize = 3;
/// The same with `--trace 1`, where each untraced repetition is
/// followed by a traced one.
const MIN_TRACED_REPS: usize = 2;
/// The paper's fac+/fac− speed ratio (§6).
const PAPER_FAC_RATIO: f64 = 8.3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    prepare_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        prepare_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--prepare" => a.prepare_dir = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if plan(&a.workload, 0, SCALE).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let result = match &args.prepare_dir {
        Some(dir) => prepare(&args, dir),
        None => measure(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn refs_path(dir: &Path) -> PathBuf {
    dir.join("refs.txt")
}

fn snapshot_path(dir: &Path, job: usize) -> PathBuf {
    dir.join(format!("snap-{job}.facsnap"))
}

/// Child-process side: writes each job's reference (one line:
/// `insns cycles out...`) and each warm job's snapshot into `dir`. A
/// snapshot that cannot be produced is left out; the warm job then
/// fails in the measuring process.
fn prepare(args: &Args, dir: &Path) -> Result<(), String> {
    let mut plan = plan(&args.workload, args.seed, SCALE).expect("workload checked by parse_args");
    let mut refs = String::new();
    for p in &mut plan {
        p.reference = reference(&p.program, p.scale);
        let r = &p.reference;
        refs.push_str(&format!("{} {}", r.insns, r.cycles));
        for v in &r.out {
            refs.push_str(&format!(" {v}"));
        }
        refs.push('\n');
    }
    std::fs::write(refs_path(dir), refs).map_err(|e| format!("cannot write references: {e}"))?;
    if !plan.iter().any(|p| p.job.warm) {
        return Ok(());
    }
    // Snapshots take a cold run each: make them on two threads.
    let step = Arc::new(perfbench::compile(None)?);
    let next = AtomicUsize::new(0);
    let worker = || -> Result<(), String> {
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(p) = plan.get(i) else {
                return Ok(());
            };
            if !p.job.warm {
                continue;
            }
            match perfbench::make_snapshot(&step, p) {
                Ok(bytes) => std::fs::write(snapshot_path(dir, i), bytes)
                    .map_err(|e| format!("cannot write snapshot: {e}"))?,
                Err(e) => eprintln!("perfbench: {}: no snapshot: {e}", p.label()),
            }
        }
    };
    std::thread::scope(|s| {
        let other = s.spawn(worker);
        let mine = worker();
        other
            .join()
            .unwrap_or_else(|_| Err("snapshot thread panicked".to_owned()))?;
        mine
    })
}

/// Removes the preparation directory, and its parent once empty, when
/// the measuring process ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs the preparation child and loads what it wrote.
fn prepared(args: &Args, dir: &Path) -> Result<Vec<Prepared>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let status = Command::new(exe)
        .arg("--workload")
        .arg(&args.workload)
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--prepare")
        .arg(dir)
        .status()
        .map_err(|e| format!("cannot start preparation: {e}"))?;
    if !status.success() {
        return Err(format!("preparation failed: {status}"));
    }
    let refs = std::fs::read_to_string(refs_path(dir))
        .map_err(|e| format!("cannot read references: {e}"))?;
    let mut plan = plan(&args.workload, args.seed, SCALE).expect("workload checked by parse_args");
    for (i, (p, line)) in plan.iter_mut().zip(refs.lines()).enumerate() {
        let nums: Vec<i64> = line
            .split_whitespace()
            .map(|v| v.parse().map_err(|e| format!("bad reference line: {e}")))
            .collect::<Result<_, _>>()?;
        let [insns, cycles, out @ ..] = nums.as_slice() else {
            return Err("bad reference line".to_owned());
        };
        p.reference = perfbench::Reference {
            out: out.to_vec(),
            insns: *insns as u64,
            cycles: *cycles as u64,
        };
        let snap = snapshot_path(dir, i);
        p.snapshot = snap.exists().then_some(snap);
    }
    Ok(plan)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Failure accounting over every repetition, plus a check that each
/// job's counters repeat exactly.
struct Tally {
    attempted: u64,
    failed: u64,
    unstable: bool,
}

fn tally(plan: &[Prepared], reps: &[&Rep]) -> Tally {
    let mut t = Tally {
        attempted: 0,
        failed: 0,
        unstable: false,
    };
    let first = reps.iter().find(|r| r.compile_error.is_none());
    for (n, rep) in reps.iter().enumerate() {
        t.attempted += plan.len() as u64;
        if let Some(e) = &rep.compile_error {
            t.failed += plan.len() as u64;
            println!("FAIL rep {n}: ooo.fac did not compile: {e}");
            continue;
        }
        for (i, (p, o)) in plan.iter().zip(&rep.jobs).enumerate() {
            if let Some(e) = &o.failure {
                t.failed += 1;
                println!("FAIL rep {n} job {}: {e}", p.label());
            } else if first
                .is_some_and(|f| f.jobs[i].failure.is_none() && f.jobs[i].counters != o.counters)
            {
                t.unstable = true;
                println!(
                    "UNSTABLE rep {n} job {}: counters {} differ from the first repetition's",
                    p.label(),
                    o.counters.to_json()
                );
            }
        }
    }
    t
}

fn measure(args: &Args) -> Result<(), String> {
    let work = WorkDir(PathBuf::from(WORK_DIR).join(std::process::id().to_string()));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("cannot create work dir: {e}"))?;
    let plan = prepared(args, &work.0)?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);

    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, LayerTimes)> = Vec::new();
    let mut last_tracer = None;
    loop {
        let started = Instant::now();
        let rep = run_rep(&plan, None);
        eprintln!(
            "perfbench: repetition {}: wall {:.4} s, run {:.4} s ({:.4} host s, slowdown {:.3}), set-up {:.4} s",
            untraced.len(),
            rep.wall_s(),
            rep.run_ref_s,
            rep.run_s,
            rep.slowdown(),
            rep.setup_s
        );
        untraced.push(rep);
        if args.trace {
            let tr = Tracer::default();
            let rep = run_rep(&plan, Some(&tr));
            traced.push((rep, LayerTimes::from_spans(&tr.spans())));
            last_tracer = Some(tr);
        }
        let min = if args.trace {
            MIN_TRACED_REPS
        } else {
            MIN_REPS
        };
        // Stop once another repetition, as long as this one, would not
        // end by the deadline.
        if untraced.len() >= min && Instant::now() + started.elapsed() > deadline {
            break;
        }
    }

    let all: Vec<&Rep> = untraced
        .iter()
        .chain(traced.iter().map(|(r, _)| r))
        .collect();
    let t = tally(&plan, &all);
    println!(
        "error_rate {} ({} of {} jobs failed)",
        t.failed as f64 / t.attempted as f64,
        t.failed,
        t.attempted
    );
    if let Some(rep) = untraced.first() {
        for (i, (p, o)) in plan.iter().zip(&rep.jobs).enumerate() {
            println!("counters {} {}", p.label(), o.counters.to_json());
            let run_s = job_median_s(&untraced, i);
            eprintln!(
                "perfbench: {}: median run {run_s:.4} s, {:.0} insns/s",
                p.label(),
                o.counters.insns as f64 / run_s
            );
        }
    }

    let metrics = if args.trace {
        if let Some(tr) = &last_tracer {
            let dir = Path::new(OUT_DIR);
            let path = dir.join(format!("spans-{}.tsv", args.workload));
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| tr.write_tsv(&path)) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
        if args.workload == "slow-only" {
            report_fac_ratio(&plan, &untraced);
        }
        layer_metrics(&untraced, &traced)
    } else {
        end_to_end_metrics(&untraced)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.failed == 0 && !t.unstable,
        t.attempted,
        t.failed,
        body.join(",")
    );
    Ok(())
}

type Metric = (&'static str, f64, &'static str);

/// Median reference seconds job `i` spent in `run_steps` over the
/// repetitions where it did not fail.
fn job_median_s(reps: &[Rep], i: usize) -> f64 {
    median(
        reps.iter()
            .filter_map(|r| r.jobs.get(i))
            .filter(|o| o.failure.is_none())
            .map(|o| o.run_ref_s)
            .collect(),
    )
}

/// The end-to-end metrics, each time the median over the repetitions
/// (see [`Rep`] for which are in reference seconds).
fn end_to_end_metrics(reps: &[Rep]) -> Vec<Metric> {
    let host_rate = |r: &Rep| r.counters().insns as f64 / r.run_s;
    eprintln!(
        "perfbench: {} repetitions, median slowdown {:.3}, median {:.0} insns per host second",
        reps.len(),
        median(reps.iter().map(Rep::slowdown).collect()),
        median(reps.iter().map(host_rate).collect())
    );
    vec![
        (
            "sim_insns_per_s",
            median(reps.iter().filter_map(Rep::insns_per_s).collect()),
            "1/s",
        ),
        (
            "wall_s",
            median(reps.iter().map(|r| r.wall_s()).collect()),
            "s",
        ),
        (
            "setup_s",
            median(reps.iter().map(|r| r.setup_s).collect()),
            "s",
        ),
        ("peak_rss_mib", alloc::peak_rss_mib(), "MiB"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics from the traced repetition with the median run
/// time, so that its layer times add up exactly: `vm.run_s` is the sum
/// of `vm.slow_s`, `vm.fast_s`, `vm.recovery_s`, `arch.ext_s` and
/// `vm.other_s`. Layer times are host seconds; `host.slowdown` says how
/// slow the host ran against the reference.
fn layer_metrics(untraced: &[Rep], traced: &[(Rep, LayerTimes)]) -> Vec<Metric> {
    let mut order: Vec<&(Rep, LayerTimes)> = traced.iter().collect();
    order.sort_by_key(|(_, t)| t.run_ns);
    let (rep, t) = order[(order.len() - 1) / 2];
    let ms = |l: Layer| t.secs(l) * 1e3;
    let s = |l: Layer| t.secs(l);
    let c = rep.counters();
    let snap_mib = rep.jobs.iter().map(|j| j.snapshot_bytes).sum::<u64>() as f64 / 1048576.0;
    let slow_s = s(Layer::Slow);
    let fast_s = s(Layer::Fast);
    let ext_s = t.ext_ns as f64 * 1e-9;
    let traced_wall = median(traced.iter().map(|(r, _)| r.wall_s()).collect());
    let untraced_wall = median(untraced.iter().map(|r| r.wall_s()).collect());
    vec![
        ("lang.parse_ms", ms(Layer::Parse), "ms"),
        ("sema.analyze_ms", ms(Layer::Analyze), "ms"),
        ("ir.lower_ms", ms(Layer::Lower), "ms"),
        ("ir.verify_ms", ms(Layer::Verify), "ms"),
        ("codegen.compile_ms", ms(Layer::Codegen), "ms"),
        ("codegen.actions", rep.actions as f64, "count"),
        ("isa.assemble_ms", ms(Layer::Assemble), "ms"),
        ("vm.construct_ms", ms(Layer::Construct), "ms"),
        (
            "host.slowdown",
            median(untraced.iter().map(Rep::slowdown).collect()),
            "ratio",
        ),
        ("vm.run_s", t.run_ns as f64 * 1e-9, "s"),
        ("vm.slow_s", slow_s, "s"),
        ("vm.slow_steps", c.slow_steps as f64, "count"),
        (
            "vm.slow_us_per_step",
            ratio(slow_s * 1e6, c.slow_steps as f64),
            "us",
        ),
        ("vm.recovery_s", s(Layer::Recovery), "s"),
        ("vm.recoveries", c.recoveries as f64, "count"),
        ("vm.misses", c.misses as f64, "count"),
        ("vm.fast_s", fast_s, "s"),
        ("vm.fast_steps", c.fast_steps as f64, "count"),
        (
            "vm.fast_ns_per_step",
            ratio(fast_s * 1e9, c.fast_steps as f64),
            "ns",
        ),
        ("vm.bursts", t.count[Layer::Fast as usize] as f64, "count"),
        (
            "vm.actions_per_fast_step",
            ratio(c.actions_replayed as f64, c.fast_steps as f64),
            "count",
        ),
        (
            "vm.fast_fraction",
            ratio(c.fast_insns as f64, c.insns as f64),
            "fraction",
        ),
        ("vm.other_s", s(Layer::Run), "s"),
        (
            "trace.coverage",
            ratio(c.trace_steps as f64, c.fast_steps as f64),
            "fraction",
        ),
        ("trace.built", c.trace_built as f64, "count"),
        ("trace.bails", c.trace_bails as f64, "count"),
        ("snap.parse_s", s(Layer::SnapParse), "s"),
        ("snap.validate_s", s(Layer::SnapValidate), "s"),
        ("snap.install_s", s(Layer::SnapInstall), "s"),
        ("snap.mib", snap_mib, "MiB"),
        ("cache.peak_mib", c.bytes_peak as f64 / 1048576.0, "MiB"),
        ("cache.nodes_created", c.nodes_created as f64, "count"),
        ("cache.clears", c.clears as f64, "count"),
        ("cache.evictions", c.evictions as f64, "count"),
        ("cache.frozen_mib", c.bytes_frozen as f64 / 1048576.0, "MiB"),
        (
            "rt.allocs_per_step",
            ratio(c.allocs as f64, (c.fast_steps + c.slow_steps) as f64),
            "count",
        ),
        ("arch.ext_calls", c.ext_calls as f64, "count"),
        ("arch.ext_s", ext_s, "s"),
        (
            "arch.ext_ns_per_call",
            ratio(ext_s * 1e9, c.ext_calls as f64),
            "ns",
        ),
        (
            "obs.overhead_frac",
            traced_wall / untraced_wall - 1.0,
            "fraction",
        ),
    ]
}

/// Prints, for each slow-only job, the speed of the same program with
/// memoization on (one calibrated cold run) over its median slow-only
/// speed, beside the paper's fac+/fac− ratio. Reported only; never
/// gated.
fn report_fac_ratio(plan: &[Prepared], untraced: &[Rep]) {
    let Ok(step) = perfbench::compile(None) else {
        return;
    };
    let step = Arc::new(step);
    let mut clock = RefClock::new();
    for (i, p) in plan.iter().enumerate() {
        let slow = job_median_s(untraced, i);
        let cold = Prepared {
            job: perfbench::Job {
                memoize: true,
                ..p.job
            },
            ..p.clone()
        };
        let o = run_job(&step, &cold, None, &mut clock);
        match o.failure {
            Some(e) => println!("report fac+/fac- {}: cold run failed: {e}", p.label()),
            None => println!(
                "report fac+/fac- {}: {:.2}x (paper {PAPER_FAC_RATIO}x)",
                p.label(),
                slow / o.run_ref_s
            ),
        }
    }
}
