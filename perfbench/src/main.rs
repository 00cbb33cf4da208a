//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and the correctness gates.
//!
//! ```text
//! nfp-perfbench --workload estimate|campaign|campaign_remote --seed N
//!               --seconds S --trace 0|1 [--size full|tiny] [--out DIR]
//! nfp-perfbench --workload estimate --write-expected perfbench/expected
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from a
//! run with a span around every call into a layer.

mod campaign;
mod estimate;
mod remote;
mod trace;

use nfp_bench::Mode;
use nfp_cc::{CompileOptions, FloatMode};
use nfp_core::NfpError;
use nfp_workloads::{Kernel, Preset, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The seed whose outputs are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, with units. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("est_mips", "Minstr/s"),
    ("time_err_pct", "%"),
    ("energy_err_pct", "%"),
    ("inj_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, with units. Every traced run reports all of them;
/// a layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.synth_s", "s"),
    ("workloads.machine_for_s", "s"),
    ("workloads.machine_for_calls", "count"),
    ("cc.compile_s", "s"),
    ("core.calibrate_s", "s"),
    ("core.estimate_s", "s"),
    ("sim.count_s", "s"),
    ("sim.count_instr", "count"),
    ("sim.count_mips", "Minstr/s"),
    ("sim.count_stepped_frac", "ratio"),
    ("testbed.run_s", "s"),
    ("testbed.instr", "count"),
    ("testbed.mips", "Minstr/s"),
    ("bench.evaluation.busy_s", "s"),
    ("bench.evaluation.idle_s", "s"),
    ("bench.report_s", "s"),
    ("bench.campaign.golden_s", "s"),
    ("bench.campaign.classify_s", "s"),
    ("bench.campaign.useful_frac", "ratio"),
    ("bench.campaign.escalations", "count"),
    ("bench.campaign.masked", "count"),
    ("bench.campaign.sdc", "count"),
    ("bench.campaign.trap", "count"),
    ("bench.campaign.hang", "count"),
    ("sim.restore_s", "s"),
    ("sim.restore_bytes", "B"),
    ("sim.seek_s", "s"),
    ("sim.seek_instr", "count"),
    ("sim.post_s", "s"),
    ("sim.post_instr", "count"),
    ("sim.post_mips", "Minstr/s"),
    ("sim.fault_s", "s"),
    ("sim.traced", "count"),
    ("sim.batched", "count"),
    ("sim.stepped", "count"),
    ("bench.supervisor.run_s", "s"),
    ("bench.supervisor.quarantined", "count"),
    ("bench.supervisor.kills", "count"),
    ("bench.serve.submit_s", "s"),
    ("bench.serve.submit_median_s", "s"),
    ("bench.serve.overhead_ratio", "ratio"),
    ("bench.serve.redispatched", "count"),
    ("bench.serve.speculated", "count"),
    ("bench.serve.audited", "count"),
    ("bench.serve.audit_passed", "count"),
    ("bench.serve.frames_rejected", "count"),
    ("bench.serve.peers_retired", "count"),
    ("bench.serve.reconnects", "count"),
    ("bench.serve.workers_convicted", "count"),
    ("bench.servejournal.bytes_per_inj", "B"),
    ("bench.cache.hits", "count"),
    ("bench.cache.misses", "count"),
    ("trace.wall_s", "s"),
    ("trace.thread_s", "s"),
    ("trace.wait_s", "s"),
    ("trace.unaccounted_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Run sizes. `Tiny` exists for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What every workload gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub size: Size,
    pub out: PathBuf,
    pub tracer: Tracer,
    pub start: Instant,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.on()
    }
}

/// What a workload hands back for the result line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, each a one-line explanation.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_default() += value;
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds the trace-derived metrics every traced run reports: self
    /// time per layer span (span `x` gives metric `x_s`), time threads
    /// spent waiting on other threads (spans `wait.*`), the rest
    /// (harness glue, no layer span) as `trace.unaccounted_s`, their
    /// sum as `trace.thread_s`, and the traced wall (root spans).
    pub fn add_trace(&mut self, tracer: &Tracer) {
        let spans = tracer.spans();
        self.set("trace.unaccounted_s", 0.0);
        self.set("trace.wait_s", 0.0);
        for (name, own) in trace::self_times(&spans) {
            let metric = PER_LAYER
                .iter()
                .find(|(m, _)| m.strip_suffix("_s") == Some(name))
                .map(|&(m, _)| m);
            match metric {
                _ if name.starts_with("wait.") => self.add("trace.wait_s", own),
                Some(metric) => self.add(metric, own),
                None => self.add("trace.unaccounted_s", own),
            }
        }
        let calls = spans
            .iter()
            .filter(|s| s.name == "workloads.machine_for")
            .count();
        self.set("workloads.machine_for_calls", calls as f64);
        self.set("trace.thread_s", trace::thread_seconds(&spans));
        let wall: f64 = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| s.end - s.start)
            .sum();
        self.set("trace.wall_s", wall);
    }
}

/// splitmix64: the benchmark derives every input choice from `--seed`
/// through this mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so that the next [`peak_rss_mb`] covers one body unit.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The `peak_rss_mb` figure: the larger of the set-up peak and the
/// median over body units of each unit's peak. The median keeps a rare
/// injection that scribbles over guest RAM from setting the figure.
pub fn rss_figure(setup_peak: f64, unit_peaks: &[f64]) -> f64 {
    setup_peak.max(median(unit_peaks))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The quick-preset program for a (workload, float mode) pair. The
/// first call per pair compiles through `nfp_workloads::program`, which
/// caches it for the process; later set-up repetitions compile afresh
/// with `nfp_cc::compile` so that each repetition does the same work.
pub fn compile(
    ctx: &Ctx,
    workload: Workload,
    mode: FloatMode,
    fresh: bool,
) -> Result<(), NfpError> {
    ctx.tracer.span("cc.compile", || {
        if fresh {
            let source = match workload {
                Workload::Hevc => nfp_workloads::hevc::minic::decoder_source(),
                Workload::Fse => nfp_workloads::fse::minic::fse_source(),
            };
            nfp_cc::compile(&source, &CompileOptions::new(mode))
                .map(drop)
                .map_err(|e| NfpError::Workload {
                    what: format!("{workload:?}/{mode:?} program"),
                    reason: e.to_string(),
                })
        } else {
            nfp_workloads::program(workload, mode).map(drop)
        }
    })
}

/// Synthesises the quick-preset kernel registries.
pub fn synth_hevc(ctx: &Ctx) -> Result<Vec<Kernel>, NfpError> {
    ctx.tracer.span("workloads.synth", || {
        nfp_workloads::hevc_kernels(&Preset::quick())
    })
}

pub fn synth_fse(ctx: &Ctx) -> Result<Vec<Kernel>, NfpError> {
    ctx.tracer.span("workloads.synth", || {
        nfp_workloads::fse_kernels(&Preset::quick())
    })
}

/// Fig. 4's showcase kernels in their float variants: the inputs of
/// both campaign workloads.
pub const SHOWCASE: [&str; 2] = ["fse_img00", "hevc_movobj_lowdelay_qp32"];

/// Synthesises and compiles what the two showcase kernels need.
pub fn showcase_setup(ctx: &Ctx, fresh: bool) -> Result<Vec<Kernel>, NfpError> {
    let mut all = synth_fse(ctx)?;
    all.extend(synth_hevc(ctx)?);
    for w in [Workload::Fse, Workload::Hevc] {
        compile(ctx, w, Mode::Float.float_mode(), fresh)?;
    }
    SHOWCASE
        .iter()
        .map(|name| {
            all.iter()
                .find(|k| k.name == *name)
                .cloned()
                .ok_or(NfpError::Empty {
                    what: "showcase kernel",
                })
        })
        .collect()
}

/// Set-up repetitions of an untraced run: at least `SETUP_MIN_REPS`,
/// and more until the set-up phase has lasted `SETUP_MIN_SECONDS`, up
/// to `SETUP_MAX_REPS`.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;

/// Runs `setup` repeatedly and returns the last result with the
/// median set-up time; once in a traced or tiny run. The first
/// repetition is timed from process start, so it includes everything
/// before the workload began. Each earlier result goes to `teardown`,
/// outside the timing but inside the phase's length.
pub fn timed_setup<T>(
    ctx: &Ctx,
    mut setup: impl FnMut(usize) -> Result<T, NfpError>,
    mut teardown: impl FnMut(T) -> Result<(), NfpError>,
) -> Result<(T, f64), NfpError> {
    let once = ctx.traced() || ctx.size == Size::Tiny;
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_MAX_REPS {
        let lasted = ctx.start.elapsed().as_secs_f64();
        if rep > 0 && (once || (rep >= SETUP_MIN_REPS && lasted >= SETUP_MIN_SECONDS)) {
            break;
        }
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t = if rep == 0 { ctx.start } else { Instant::now() };
        last = Some(setup(rep)?);
        times.push(t.elapsed().as_secs_f64());
    }
    eprintln!("set-up: {} repetitions, {times:.4?} s", times.len());
    Ok((
        last.expect("at least one set-up repetition"),
        median(&times),
    ))
}

fn render(out: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = out
                .metrics
                .get(name)
                .copied()
                .unwrap_or(if trace { 0.0 } else { f64::NAN });
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

fn usage(msg: &str) -> ! {
    eprintln!("nfp-perfbench: {msg}");
    eprintln!(
        "usage: nfp-perfbench --workload estimate|campaign|campaign_remote --seed N \
         --seconds S --trace 0|1 [--size full|tiny] [--out DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = flag("--workload").unwrap_or_else(|| usage("missing --workload"));
    let seed: u64 = flag("--seed")
        .unwrap_or("1")
        .parse()
        .unwrap_or_else(|_| usage("--seed wants an unsigned integer"));
    let seconds: f64 = flag("--seconds")
        .unwrap_or("10")
        .parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .unwrap_or_else(|| usage("--seconds wants a positive number"));
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage("--trace wants 0 or 1"),
    };
    let size = match flag("--size").unwrap_or("full") {
        "full" => Size::Full,
        "tiny" => Size::Tiny,
        _ => usage("--size wants full or tiny"),
    };
    let out = PathBuf::from(flag("--out").unwrap_or(".bench_build/perfbench"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        usage(&format!("cannot create {}: {e}", out.display()));
    }
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        size,
        out,
        tracer: Tracer::new(trace),
        start,
    };
    if let Some(dir) = flag("--write-expected") {
        let dir = PathBuf::from(dir);
        let written = estimate::write_expected(&ctx, &dir)
            .and_then(|()| campaign::write_expected(&dir, &showcase_setup(&ctx, false)?));
        if let Err(e) = written {
            eprintln!("nfp-perfbench: writing expected files failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let result = match workload {
        "estimate" => estimate::run(&ctx),
        "campaign" => campaign::run(&ctx),
        "campaign_remote" => remote::run(&ctx),
        other => usage(&format!("unknown workload '{other}'")),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("nfp-perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    };
    if trace {
        let path = ctx.out.join(format!("trace-{workload}-{seed}.jsonl"));
        if let Err(e) = trace::write_spans(&path, &ctx.tracer.spans()) {
            outcome
                .errors
                .push(format!("cannot write {}: {e}", path.display()));
        } else {
            eprintln!("nfp-perfbench: spans written to {}", path.display());
        }
    }
    for e in &outcome.errors {
        eprintln!("nfp-perfbench: CHECK FAILED: {e}");
    }
    println!("{}", render(&outcome, trace));
    if !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}
