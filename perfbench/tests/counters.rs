//! The exact work counters behind every timing: two runs of a workload
//! must give identical counters, and so must a traced and an untraced
//! run, which shows that observation does not change behaviour. Each
//! workload runs its first program variant at a small scale.

use perfbench::trace::{Layer, LayerTimes, Tracer};
use perfbench::{make_snapshot, plan, reference, run_rep, Prepared, Rep, WORKLOADS};
use std::sync::Arc;

const SCALE: f64 = 0.005;

/// The first variant of each job of `workload`, with references and,
/// for warm jobs, snapshot files named after `test`.
fn prepared(test: &str, workload: &str) -> Vec<Prepared> {
    let mut jobs = plan(workload, 0, SCALE).expect("known workload");
    jobs.retain(|p| p.variant == 0);
    for p in &mut jobs {
        p.reference = reference(&p.program, p.scale);
    }
    if jobs.iter().any(|p| p.job.warm) {
        let step = Arc::new(perfbench::compile(None).expect("ooo.fac compiles"));
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        for (i, p) in jobs.iter_mut().enumerate().filter(|(_, p)| p.job.warm) {
            let path = dir.join(format!("{test}-{workload}-{i}.facsnap"));
            std::fs::write(&path, make_snapshot(&step, p).expect("cold run snapshots"))
                .expect("snapshot written");
            p.snapshot = Some(path);
        }
    }
    jobs
}

fn counters(jobs: &[Prepared], rep: &Rep) -> Vec<String> {
    assert!(rep.compile_error.is_none(), "{:?}", rep.compile_error);
    jobs.iter()
        .zip(&rep.jobs)
        .map(|(p, o)| {
            assert_eq!(o.failure, None, "{}", p.label());
            o.counters.to_json()
        })
        .collect()
}

#[test]
fn counters_repeat_exactly() {
    for w in WORKLOADS {
        let jobs = prepared("repeat", w);
        let first = counters(&jobs, &run_rep(&jobs, None));
        let second = counters(&jobs, &run_rep(&jobs, None));
        assert_eq!(first, second, "{w}");
    }
}

#[test]
fn tracing_does_not_change_counters() {
    for w in WORKLOADS {
        let jobs = prepared("traced", w);
        let untraced = counters(&jobs, &run_rep(&jobs, None));
        let tr = Tracer::default();
        let rep = run_rep(&jobs, Some(&tr));
        assert_eq!(untraced, counters(&jobs, &rep), "{w}");

        // The engine spans are the engine's own events: one recovery
        // span per recovery, and fast bursts exactly when memoizing.
        let t = LayerTimes::from_spans(&tr.spans());
        let c = rep.counters();
        assert_eq!(t.count[Layer::Recovery as usize], c.recoveries, "{w}");
        assert_eq!(t.count[Layer::Fast as usize] > 0, c.fast_steps > 0, "{w}");
        assert!(t.count[Layer::Slow as usize] >= c.slow_steps, "{w}");
        let slices: u64 = rep.jobs.iter().map(|o| o.slices).sum();
        assert_eq!(t.count[Layer::Run as usize], slices, "{w}");
    }
}
