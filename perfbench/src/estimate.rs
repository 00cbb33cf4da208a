//! The `estimate` workload: the Table III flow of `repro table3`
//! (`Evaluation::new`, the sweep of `Evaluation::run_all_parallel`,
//! then `report_table3`/`report_table4`) over all 36 HEVC kernels plus
//! a seed-chosen slice of FSE images, each in float and fixed variants.
//! The traced run rebuilds the sweep from the calls `run_kernel_with`
//! makes and checks its tables against `run_all_parallel`'s.

use crate::{compile, mix, synth_fse, synth_hevc, timed_setup, Ctx, Outcome, Size};
use nfp_bench::{report_table3, report_table4, Evaluation, KernelResult, Mode};
use nfp_core::{ClassCounter, NfpError, Paper};
use nfp_sim::DispatchStats;
use nfp_workloads::{machine_for, Kernel, Workload, KERNEL_BUDGET};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// FSE images per run, chosen by the seed from the 24 of the registry.
const FSE_SLICE: usize = 2;

/// Per-variant records of all 120 quick-preset variants: instret,
/// Table I class counts, estimate and measurement.
const EXPECTED_VARIANTS: &str = include_str!("../expected/estimate_variants.txt");

/// Table III/IV text of the default seed.
const EXPECTED_TABLES: &str = include_str!("../expected/estimate_tables.txt");

/// The kernels of one run: every HEVC kernel plus `FSE_SLICE` FSE
/// images drawn without replacement by the seed.
fn choose(seed: u64, size: Size, hevc: Vec<Kernel>, fse: Vec<Kernel>) -> Vec<Kernel> {
    let (hevc_n, fse_n) = match size {
        Size::Full => (hevc.len(), FSE_SLICE),
        Size::Tiny => (2, 1),
    };
    let mut pool: Vec<Kernel> = fse;
    let mut kernels: Vec<Kernel> = hevc.into_iter().take(hevc_n).collect();
    let mut state = seed;
    for _ in 0..fse_n.min(pool.len()) {
        state = mix(state);
        kernels.push(pool.remove((state % pool.len() as u64) as usize));
    }
    kernels
}

/// One line of `expected/estimate_variants.txt`.
fn variant_line(r: &KernelResult) -> String {
    let counts: Vec<String> = r.counts.iter().map(u64::to_string).collect();
    format!(
        "{} {} {} {:?} {:?} {:?} {:?}",
        r.name,
        r.instret,
        counts.join(","),
        r.estimate.time_s,
        r.estimate.energy_j,
        r.measured.time_s,
        r.measured.energy_j
    )
}

fn tables(results: &[KernelResult]) -> String {
    format!("{}\n{}\n", report_table3(results), report_table4(results))
}

/// The correctness gate of one sweep: class counts add up to instret,
/// and every variant matches its committed record.
fn check_results(out: &mut Outcome, results: &[KernelResult]) {
    for r in results {
        out.check(r.counts.iter().sum::<u64>() == r.instret, || {
            format!("{}: class counts do not sum to instret", r.name)
        });
        let line = variant_line(r);
        let expected = EXPECTED_VARIANTS
            .lines()
            .find(|l| l.split(' ').next() == Some(r.name.as_str()));
        out.check(expected == Some(line.as_str()), || {
            format!(
                "{}: behaviour changed\n  expected {}\n  got      {line}",
                r.name,
                expected.unwrap_or("(no record)")
            )
        });
    }
}

/// Mean absolute Eq. 3 errors in percent: (time, energy).
fn errors_pct(results: &[KernelResult]) -> (f64, f64) {
    let n = results.len().max(1) as f64;
    let t: f64 = results.iter().map(|r| r.time_error().abs()).sum();
    let e: f64 = results.iter().map(|r| r.energy_error().abs()).sum();
    (100.0 * t / n, 100.0 * e / n)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, NfpError> {
    let mut out = Outcome::default();
    let (kernels, eval, fse0, setup_s) = ctx.tracer.span("harness", || {
        let ((kernels, eval, fse0), setup_s) = timed_setup(
            ctx,
            |rep| {
                let hevc = synth_hevc(ctx)?;
                let fse = synth_fse(ctx)?;
                for w in [Workload::Hevc, Workload::Fse] {
                    for m in Mode::BOTH {
                        compile(ctx, w, m.float_mode(), rep > 0)?;
                    }
                }
                let eval = ctx.tracer.span("core.calibrate", Evaluation::new)?;
                let fse0 = fse[0].clone();
                Ok((choose(ctx.seed, ctx.size, hevc, fse), eval, fse0))
            },
            |_| Ok(()),
        )?;
        Ok::<_, NfpError>((kernels, eval, fse0, setup_s))
    })?;
    let setup_peak = crate::peak_rss_mb();
    let variants = (kernels.len() * 2) as u64;
    eprintln!(
        "estimate: {} kernels x 2 variants, set-up {setup_s:.3}s",
        kernels.len()
    );

    if ctx.traced() {
        // Overhead baseline: the same sweep, untraced.
        let t = Instant::now();
        let plain = eval.run_all_parallel(&kernels)?;
        let plain_wall = t.elapsed().as_secs_f64();
        let plain_tables = tables(&plain);

        let traced = ctx.tracer.span("harness", || sweep(ctx, &eval, &kernels))?;
        report_traced(ctx, &traced, &mut out);
        let traced_tables = ctx.tracer.span("bench.report", || tables(&traced.results));
        out.check(traced_tables == plain_tables, || {
            "traced replica's Table III/IV differ from run_all_parallel's".to_string()
        });
        check_results(&mut out, &traced.results);
        out.attempted = variants;
        out.set("trace.overhead_ratio", traced.wall / plain_wall);
        out.add_trace(&ctx.tracer);
        return Ok(out);
    }

    // The timed body: whole `run_all_parallel` sweeps until the run
    // length is used up. After each sweep, a cross probe: the estimate
    // flow runs no campaign, so `inj_per_s` comes from short supervised
    // campaigns on the first FSE kernel.
    let body = Instant::now();
    let mut mips = Vec::new();
    let mut probes = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<Vec<KernelResult>> = None;
    while first.is_none() || body.elapsed() < ctx.seconds {
        crate::reset_peak_rss();
        let t = Instant::now();
        let results = eval.run_all_parallel(&kernels);
        let wall = t.elapsed().as_secs_f64();
        rss.push(crate::peak_rss_mb());
        out.attempted += variants;
        let results = match results {
            Ok(r) => r,
            Err(e) => {
                out.failed += variants;
                out.errors.push(format!("sweep failed: {e}"));
                break;
            }
        };
        let instret: u64 = results.iter().map(|r| r.instret).sum();
        mips.push(instret as f64 / wall / 1e6);
        match &first {
            None => first = Some(results),
            Some(f) => {
                let same = f
                    .iter()
                    .zip(&results)
                    .all(|(a, b)| a.instret == b.instret && a.counts == b.counts);
                out.check(same, || {
                    "a repeated sweep retired different counts".to_string()
                });
            }
        }
        for _ in 0..crate::campaign::PROBE_CAMPAIGNS {
            probes.push(crate::campaign::probe_sample(
                ctx,
                &fse0,
                probes.len() as u64,
                &mut out,
            )?);
        }
    }
    eprintln!(
        "estimate: sweeps at {mips:.2?} Minstr/s, peak {rss:.2?} MiB (set-up {setup_peak:.2} MiB); \
         probe injections/s {probes:.1?}"
    );

    if let Some(results) = &first {
        check_results(&mut out, results);
        if ctx.seed == crate::DEFAULT_SEED && ctx.size == Size::Full {
            let text = tables(results);
            out.check(text == EXPECTED_TABLES, || {
                format!("Table III/IV differ from expected/estimate_tables.txt:\n{text}")
            });
        }
        let (t, e) = errors_pct(results);
        out.set("time_err_pct", t);
        out.set("energy_err_pct", e);
    }
    out.set("setup_s", setup_s);
    out.set("est_mips", crate::median(&mips));
    out.set("inj_per_s", crate::median(&probes));
    // Only the first sweep runs before any probe campaign: memory the
    // probes leave with the allocator would count in later sweeps.
    out.set("peak_rss_mb", crate::rss_figure(setup_peak, &rss[..1]));
    Ok(out)
}

/// Cross-probe passes after each body unit of a workload that runs no
/// Table III sweep.
pub const PROBE_PASSES: usize = 6;

/// Cross probe for workloads that run no Table III sweep: one pass of
/// the estimate flow (`run_kernel`) over `kernels`' float variants, one
/// after another. Pushes the pass's summed instret over its wall time,
/// in Minstr/s, to `mips`. The first pass also gates the results and
/// sets the two Eq. 3 errors.
pub fn probe_sample(
    eval: &Evaluation,
    kernels: &[Kernel],
    mips: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), NfpError> {
    let t = Instant::now();
    let results = kernels
        .iter()
        .map(|k| eval.run_kernel(k, Mode::Float))
        .collect::<Result<Vec<_>, _>>()?;
    let instret: u64 = results.iter().map(|r| r.instret).sum();
    mips.push(instret as f64 / t.elapsed().as_secs_f64() / 1e6);
    if !out.metrics.contains_key("time_err_pct") {
        check_results(out, &results);
        let (t, e) = errors_pct(&results);
        out.set("time_err_pct", t);
        out.set("energy_err_pct", e);
    }
    Ok(())
}

/// One traced sweep, in job order.
struct Sweep {
    results: Vec<KernelResult>,
    /// Instructions the count passes retired on the step path.
    stepped: u64,
    /// The sweep's wall time and its worker count.
    wall: f64,
    workers: usize,
}

/// The sweep `Evaluation::run_all_parallel` makes (same job order,
/// dispatch from a shared counter, one worker per core), each job
/// being the calls `run_kernel` makes, with a span around each.
fn sweep(ctx: &Ctx, eval: &Evaluation, kernels: &[Kernel]) -> Result<Sweep, NfpError> {
    let tr = &ctx.tracer;
    let jobs: Vec<(&Kernel, Mode)> = kernels
        .iter()
        .flat_map(|k| Mode::BOTH.map(|m| (k, m)))
        .collect();
    type Slot = Mutex<Option<Result<(KernelResult, DispatchStats), NfpError>>>;
    let slots: Vec<Slot> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len().max(1));
    let t = Instant::now();
    tr.span("wait.sweep", || {
        let parent = tr.current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    tr.adopt(parent, || {
                        tr.span("wait.worker", || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(kernel, mode)) = jobs.get(i) else {
                                break;
                            };
                            let r = tr.span("bench.evaluation.job", || {
                                run_kernel_traced(ctx, eval, kernel, mode)
                            });
                            *slots[i].lock().expect("result slot poisoned") = Some(r);
                        })
                    })
                });
            }
        });
    });
    let mut out = Sweep {
        results: Vec::with_capacity(jobs.len()),
        stepped: 0,
        wall: t.elapsed().as_secs_f64(),
        workers,
    };
    for (slot, (k, m)) in slots.into_iter().zip(&jobs) {
        let (r, ds) = slot
            .into_inner()
            .expect("result slot poisoned")
            .ok_or_else(|| NfpError::WorkerLost {
                job: format!("{}_{}", k.name, m.suffix()),
            })??;
        out.stepped += ds.stepped;
        out.results.push(r);
    }
    Ok(out)
}

/// The per-layer metrics of a traced sweep.
fn report_traced(ctx: &Ctx, s: &Sweep, out: &mut Outcome) {
    let spans = ctx.tracer.spans();
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    };
    let busy = total("bench.evaluation.job");
    out.set("bench.evaluation.busy_s", busy);
    out.set("bench.evaluation.idle_s", s.workers as f64 * s.wall - busy);
    let count_instr: u64 = s.results.iter().map(|r| r.instret).sum();
    out.set("sim.count_instr", count_instr as f64);
    out.set("testbed.instr", count_instr as f64);
    out.set(
        "sim.count_stepped_frac",
        s.stepped as f64 / count_instr as f64,
    );
    out.set(
        "sim.count_mips",
        count_instr as f64 / total("sim.count") / 1e6,
    );
    out.set(
        "testbed.mips",
        count_instr as f64 / total("testbed.run") / 1e6,
    );
}

/// `Evaluation::run_kernel_with` for the paper classifier, one span per
/// layer call. Returns the count pass's dispatch counters too.
fn run_kernel_traced(
    ctx: &Ctx,
    eval: &Evaluation,
    kernel: &Kernel,
    mode: Mode,
) -> Result<(KernelResult, DispatchStats), NfpError> {
    let tr = &ctx.tracer;
    let name = format!("{}_{}", kernel.name, mode.suffix());
    let mut counter = ClassCounter::new(Paper);
    let mut machine = tr.span("workloads.machine_for", || {
        machine_for(kernel, mode.float_mode())
    })?;
    let run = tr.span("sim.count", || {
        machine.run_observed(KERNEL_BUDGET, &mut counter)
    })?;
    if run.exit_code != 0 {
        return Err(NfpError::KernelFailed {
            kernel: name,
            exit_code: run.exit_code,
        });
    }
    if run.words != kernel.expected_words {
        return Err(NfpError::OutputMismatch { kernel: name });
    }
    let counts = counter.counts().to_vec();
    let estimate = tr.span("core.estimate", || eval.calibration.model.estimate(&counts));
    let mut machine2 = tr.span("workloads.machine_for", || {
        machine_for(kernel, mode.float_mode())
    })?;
    let measured = tr.span("testbed.run", || {
        eval.testbed.run(&mut machine2, kernel.seed, KERNEL_BUDGET)
    })?;
    Ok((
        KernelResult {
            name,
            base_name: kernel.name.clone(),
            mode,
            counts,
            estimate,
            measured: measured.measurement,
            totals: measured.totals,
            instret: run.instret,
        },
        machine.dispatch_stats(),
    ))
}

/// Writes the expected files for this workload into `dir`: per-variant
/// records of every quick-preset variant, and the Table III/IV text of
/// the default seed at full size.
pub fn write_expected(ctx: &Ctx, dir: &std::path::Path) -> Result<(), NfpError> {
    let io = |e: std::io::Error| NfpError::Workload {
        what: "expected files".to_string(),
        reason: e.to_string(),
    };
    let eval = Evaluation::new()?;
    let all = nfp_workloads::all_kernels(&nfp_workloads::Preset::quick())?;
    let results = eval.run_all_parallel(&all)?;
    let lines: Vec<String> = results.iter().map(variant_line).collect();
    std::fs::write(dir.join("estimate_variants.txt"), lines.join("\n") + "\n").map_err(io)?;
    let kernels = choose(
        crate::DEFAULT_SEED,
        Size::Full,
        synth_hevc(ctx)?,
        synth_fse(ctx)?,
    );
    let names: Vec<String> = kernels
        .iter()
        .flat_map(|k| Mode::BOTH.map(|m| format!("{}_{}", k.name, m.suffix())))
        .collect();
    let chosen: Vec<KernelResult> = names
        .iter()
        .filter_map(|n| results.iter().find(|r| &r.name == n).cloned())
        .collect();
    std::fs::write(dir.join("estimate_tables.txt"), tables(&chosen)).map_err(io)
}
