//! The traced run: spans recorded at each layer boundary, from the
//! benchmark's side of the public API.
//!
//! Set-up spans wrap the calls into the compile pipeline, the
//! assembler, `Simulation` construction and the snapshot functions.
//! Engine spans come from a [`SimObserver`]: each slow step and fast
//! burst reports its own duration, and recovery is the interval between
//! `RecoveryBegin` and `RecoveryEnd`. External calls are timed inside
//! the bound closures, one call in [`EXT_SAMPLE`] on average, and their
//! estimated time is charged to the engine span that contains them.
//! Spans stay in memory until the run ends.

use crate::alloc::uncounted;
use facile::hosts::ArchHost;
use facile::{SimError, SimObserver, Simulation, TraceEvent};
use facile_arch::bpred::BranchPredictor;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A bound external function.
type Ext = Box<dyn FnMut(&[i64]) -> i64 + Send>;

/// One external call in this many is timed; the sampled time is scaled
/// up by the same factor.
pub const EXT_SAMPLE: u64 = 8;

/// Number of [`Layer`] variants.
const LAYERS: usize = Layer::Recovery as usize + 1;

/// A layer boundary the tracer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One repetition of the workload's jobs.
    Rep,
    /// `compile_source`'s pipeline as a whole.
    Compile,
    /// `facile_lang::parse`.
    Parse,
    /// `facile_sema::analyze`.
    Analyze,
    /// `facile_ir::lower::lower`.
    Lower,
    /// `facile_ir::verify::verify`.
    Verify,
    /// `facile_codegen::compile` (binding-time analysis included).
    Codegen,
    /// Program generation and `facile_isa` assembly.
    Assemble,
    /// `Simulation::new`, external binding and observer attachment.
    Construct,
    /// Snapshot file read and `snapshot::parse`.
    SnapParse,
    /// `LoadedSnapshot::validate`.
    SnapValidate,
    /// `Simulation::warm_start`.
    SnapInstall,
    /// One `Simulation::run_steps` slice of a run to halt.
    Run,
    /// One slow (complete) engine step.
    Slow,
    /// One fast replay burst.
    Fast,
    /// One miss recovery.
    Recovery,
}

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Rep => "rep",
            Layer::Compile => "compile",
            Layer::Parse => "lang.parse",
            Layer::Analyze => "sema.analyze",
            Layer::Lower => "ir.lower",
            Layer::Verify => "ir.verify",
            Layer::Codegen => "codegen.compile",
            Layer::Assemble => "isa.assemble",
            Layer::Construct => "vm.construct",
            Layer::SnapParse => "snap.parse",
            Layer::SnapValidate => "snap.validate",
            Layer::SnapInstall => "snap.install",
            Layer::Run => "vm.run",
            Layer::Slow => "vm.slow",
            Layer::Fast => "vm.fast",
            Layer::Recovery => "vm.recovery",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The boundary this span covers.
    pub layer: Layer,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Estimated external-call time inside this span.
    pub ext_ns: u64,
}

struct State {
    t0: Instant,
    spans: Vec<Span>,
    /// Indices of the set-up spans currently open, innermost last.
    open: Vec<u32>,
    /// External-call time not yet charged to an engine span.
    ext_pending_ns: u64,
    recovery_start: Option<u64>,
}

impl State {
    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, layer: Layer, start_ns: u64, end_ns: u64) {
        let ext_ns = std::mem::take(&mut self.ext_pending_ns);
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            ext_ns,
        });
    }
}

/// The span recorder shared by the measuring code, the observer and the bound
/// externals of one traced repetition.
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<State>>);

impl Default for Tracer {
    fn default() -> Self {
        Tracer(Arc::new(Mutex::new(State {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ext_pending_ns: 0,
            recovery_start: None,
        })))
    }
}

impl Tracer {
    fn state(&self) -> MutexGuard<'_, State> {
        self.0
            .lock()
            .expect("no tracer callback panics while holding the lock")
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let idx = uncounted(|| {
            let mut st = self.state();
            let now = st.now_ns();
            let idx = st.spans.len() as u32;
            st.push(layer, now, now);
            st.open.push(idx);
            idx
        });
        let r = f();
        uncounted(|| {
            let mut st = self.state();
            let now = st.now_ns();
            st.open.pop();
            st.spans[idx as usize].end_ns = now;
        });
        r
    }

    /// Records an engine span of `ns` nanoseconds that ended just now.
    fn engine_span(&self, layer: Layer, ns: u64) {
        uncounted(|| {
            let mut st = self.state();
            let end = st.now_ns();
            st.push(layer, end.saturating_sub(ns), end);
        });
    }

    /// The observer that turns engine events into spans.
    pub fn observer(&self) -> Box<dyn SimObserver> {
        Box::new(SpanObserver(self.clone()))
    }

    /// Binds the simulator's externals to `host`'s components exactly
    /// as `ArchHost::bind` does, with sampled timing around each call.
    pub fn bind_arch(&self, host: &ArchHost, sim: &mut Simulation) -> Result<(), SimError> {
        let mut bind =
            |name: &str, seed: u64, f: Ext| match sim.bind_external(name, self.timed(seed, f)) {
                Err(SimError::UnknownExternal(_)) => Ok(()),
                other => other,
            };
        let h = host.hierarchy.clone();
        bind(
            "icache",
            1,
            Box::new(move |a| h.lock().unwrap().inst_access(a[0] as u64) as i64),
        )?;
        let h = host.hierarchy.clone();
        bind(
            "dcache",
            2,
            Box::new(move |a| h.lock().unwrap().data_access(a[0] as u64, a[1] != 0) as i64),
        )?;
        let p = host.predictor.clone();
        bind(
            "bp_predict",
            3,
            Box::new(move |a| p.lock().unwrap().predict(a[0] as u64) as i64),
        )?;
        let p = host.predictor.clone();
        bind(
            "bp_update",
            4,
            Box::new(move |a| {
                p.lock().unwrap().update(a[0] as u64, a[1] != 0);
                0
            }),
        )?;
        let b = host.btb.clone();
        bind(
            "btb_lookup",
            5,
            Box::new(move |a| {
                let (pc, actual) = (a[0] as u64, a[1] as u64);
                let mut btb = b.lock().unwrap();
                let hit = btb.predict(pc) == Some(actual);
                btb.update(pc, actual);
                hit as i64
            }),
        )
    }

    /// Wraps an external so that a pseudo-random one call in
    /// [`EXT_SAMPLE`] is timed. The sampling sequence is a fixed
    /// xorshift per external, so it cannot lock onto a periodic call
    /// pattern and repeats exactly from run to run.
    fn timed(&self, seed: u64, mut f: Ext) -> impl FnMut(&[i64]) -> i64 + Send + 'static {
        let tr = self.clone();
        let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ seed;
        move |args| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if !x.is_multiple_of(EXT_SAMPLE) {
                return f(args);
            }
            let t = Instant::now();
            let r = f(args);
            let ns = t.elapsed().as_nanos() as u64;
            let mut st = tr.state();
            st.ext_pending_ns = st.ext_pending_ns.saturating_add(ns * EXT_SAMPLE);
            r
        }
    }

    /// A copy of the spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        uncounted(|| self.state().spans.clone())
    }

    /// Writes the spans as tab-separated lines under a header row.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tspan\tstart_ns\tend_ns\tparent\text_ns")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.ext_ns
            )?;
        }
        w.flush()
    }
}

struct SpanObserver(Tracer);

impl SimObserver for SpanObserver {
    fn on_event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::RecoveryBegin { .. } => {
                let mut st = self.0.state();
                st.recovery_start = Some(st.now_ns());
            }
            TraceEvent::RecoveryEnd { .. } => uncounted(|| {
                let mut st = self.0.state();
                let end = st.now_ns();
                let start = st.recovery_start.take().unwrap_or(end);
                st.push(Layer::Recovery, start, end);
            }),
            _ => {}
        }
    }

    fn on_slow_step(&mut self, _step: u64, _insns: u64, ns: u64) {
        self.0.engine_span(Layer::Slow, ns);
    }

    fn on_fast_burst(&mut self, _step: u64, _steps: u64, _actions: u64, _insns: u64, ns: u64) {
        self.0.engine_span(Layer::Fast, ns);
    }
}

/// Self time and span count per layer, plus external-call time.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// Self nanoseconds per layer (indexed by `Layer as usize`): the
    /// span's duration minus its child spans and its external calls.
    pub self_ns: [i64; LAYERS],
    /// Span count per layer.
    pub count: [u64; LAYERS],
    /// Estimated external-call nanoseconds.
    pub ext_ns: u64,
    /// Total duration of the `Run` spans.
    pub run_ns: u64,
}

impl LayerTimes {
    /// Folds a span list into per-layer self times.
    pub fn from_spans(spans: &[Span]) -> LayerTimes {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut t = LayerTimes::default();
        for (s, child) in spans.iter().zip(child_ns) {
            let i = s.layer as usize;
            let dur = s.end_ns - s.start_ns;
            t.self_ns[i] += dur as i64 - child as i64 - s.ext_ns as i64;
            t.count[i] += 1;
            t.ext_ns += s.ext_ns;
            if s.layer == Layer::Run {
                t.run_ns += dur;
            }
        }
        t
    }

    /// Self time of `layer` in seconds.
    pub fn secs(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 * 1e-9
    }
}
