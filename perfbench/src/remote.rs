//! The `campaign_remote` workload: small campaigns over loopback. An
//! in-process coordinator (`Server`, with a service journal and the
//! default audit rate) and two `run_worker_connect` workers; one
//! client submits campaigns one at a time, each with its own seed and
//! many more shards than workers. Every fourth submit repeats the one
//! two before it, so the result cache answers it.

use crate::trace::Tracer;
use crate::{campaign::round_config, median, showcase_setup, timed_setup, Ctx, Outcome, Size};
use nfp_bench::{
    report_campaign, run_supervised, run_worker_connect, submit_campaign, CampaignRequest,
    Evaluation, Mode, ServeConfig, ServeSummary, Server, SupervisorConfig,
};
use nfp_core::NfpError;
use nfp_workloads::Kernel;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

/// Submits per round: three fresh campaigns and one cached repeat.
const ROUND: u64 = 4;

fn sizes(ctx: &Ctx) -> (usize, u32) {
    match ctx.size {
        Size::Full => (200, 16),
        Size::Tiny => (24, 4),
    }
}

/// A coordinator and its workers, all threads of this process.
struct Service {
    addr: String,
    dir: PathBuf,
    server: JoinHandle<Result<ServeSummary, NfpError>>,
    workers: Vec<JoinHandle<i32>>,
}

impl Service {
    fn start(dir: PathBuf) -> Result<Service, NfpError> {
        let io = |e: std::io::Error| NfpError::Workload {
            what: format!("service directory {}", dir.display()),
            reason: e.to_string(),
        };
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(io)?;
        }
        std::fs::create_dir_all(&dir).map_err(io)?;
        let server = Server::bind(ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            journal: Some(dir.join("serve.journal")),
            drain: Some(dir.join("drain")),
            ..ServeConfig::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let server = std::thread::spawn(move || server.run());
        let workers = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || run_worker_connect(&addr, 3))
            })
            .collect();
        Ok(Service {
            addr,
            dir,
            server,
            workers,
        })
    }

    /// Drains the coordinator, joins every thread, and returns the
    /// coordinator's tallies with the service journal's size. `strict`
    /// requires both workers to exit cleanly; a service stopped right
    /// after it started may drain before a worker joined, and that
    /// worker then gives up reconnecting with exit code 1.
    fn stop(self, strict: bool) -> Result<(ServeSummary, u64), NfpError> {
        let io = |e: std::io::Error| NfpError::Workload {
            what: "drain sentinel".to_string(),
            reason: e.to_string(),
        };
        std::fs::write(self.dir.join("drain"), b"").map_err(io)?;
        let summary = self.server.join().map_err(|_| NfpError::WorkerLost {
            job: "coordinator thread".to_string(),
        })??;
        for w in self.workers {
            let code = w.join().map_err(|_| NfpError::WorkerLost {
                job: "worker thread".to_string(),
            })?;
            if strict && code != 0 {
                return Err(NfpError::WorkerLost {
                    job: format!("worker exited with code {code}"),
                });
            }
        }
        let bytes = std::fs::metadata(self.dir.join("serve.journal")).map_or(0, |m| m.len());
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok((summary, bytes))
    }
}

/// The request of submit `i`: fresh for three of every four submits,
/// a repeat of submit `i - 2` for the fourth.
fn request(ctx: &Ctx, kernels: &[Kernel], i: u64) -> CampaignRequest {
    let i = if i % ROUND == ROUND - 1 { i - 2 } else { i };
    let k = (i % 2) as usize;
    let (injections, shards) = sizes(ctx);
    CampaignRequest {
        client: "perfbench".to_string(),
        kernel: kernels[k].name.clone(),
        mode: Mode::Float,
        campaign: round_config(ctx.seed, 1 + i, k, injections),
        shards,
        allow_partial: false,
    }
}

/// One delivered submit.
struct Delivered {
    req: CampaignRequest,
    report: String,
    notes: Vec<String>,
    wall: f64,
}

/// Runs submits `from..from + ROUND`; returns what came back.
fn round(
    ctx: &Ctx,
    tracer: &Tracer,
    svc: &Service,
    kernels: &[Kernel],
    from: u64,
    out: &mut Outcome,
) -> Vec<Delivered> {
    let mut got = Vec::new();
    for i in from..from + ROUND {
        let req = request(ctx, kernels, i);
        let t = Instant::now();
        let r = tracer.span("bench.serve.submit", || submit_campaign(&svc.addr, &req));
        let wall = t.elapsed().as_secs_f64();
        out.attempted += 1;
        match r {
            Ok(o) if !o.notes.iter().any(|n| n.contains("missing ranges")) => {
                let d = Delivered {
                    req,
                    report: o.report,
                    notes: o.notes,
                    wall,
                };
                out.check(is_cached(&d) == (i % ROUND == ROUND - 1), || {
                    format!("submit {i}: result cache hit where a miss was due, or the reverse")
                });
                got.push(d);
            }
            Ok(_) => {
                out.failed += 1;
                out.errors
                    .push(format!("submit {i}: partial report delivered"));
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("submit {i} failed: {e}"));
            }
        }
    }
    got
}

fn is_cached(d: &Delivered) -> bool {
    d.notes.iter().any(|n| n.starts_with("result cache hit"))
}

/// Injections in a delivered report (from its header line).
fn injections_of(report: &str) -> u64 {
    report
        .split_once('(')
        .and_then(|(_, rest)| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Sums `<n> <label>` counts out of the coordinator's footer notes,
/// e.g. `3 re-dispatched` in "shards: 16 merged, 3 re-dispatched, ...".
fn note_count(delivered: &[Delivered], label: &str) -> f64 {
    let mut total = 0u64;
    for d in delivered {
        for note in &d.notes {
            for part in note.split([':', ',']) {
                if let Some(n) = part.trim().strip_suffix(label) {
                    total += n.trim().parse::<u64>().unwrap_or(0);
                }
            }
        }
    }
    total as f64
}

/// The correctness gate: each remote report is byte-identical to a
/// local `run_supervised` of the same request. Returns the local walls
/// of the fresh requests.
fn verify(
    ctx: &Ctx,
    kernels: &[Kernel],
    delivered: &[Delivered],
    out: &mut Outcome,
) -> Result<Vec<f64>, NfpError> {
    let mut walls = Vec::new();
    let mut seen: Vec<(&CampaignRequest, String)> = Vec::new();
    for d in delivered {
        let cached = seen
            .iter()
            .find(|(r, _)| r.kernel == d.req.kernel && r.campaign.seed == d.req.campaign.seed);
        let local = match cached {
            Some((_, report)) => report.clone(),
            None => {
                let kernel =
                    kernels
                        .iter()
                        .find(|k| k.name == d.req.kernel)
                        .ok_or(NfpError::Empty {
                            what: "submitted kernel",
                        })?;
                let t = Instant::now();
                let o = ctx.tracer.span("bench.supervisor.run", || {
                    run_supervised(
                        kernel,
                        Mode::Float,
                        &SupervisorConfig::new(d.req.campaign.clone()),
                    )
                })?;
                walls.push(t.elapsed().as_secs_f64());
                let report = report_campaign(&o.result);
                seen.push((&d.req, report.clone()));
                report
            }
        };
        out.check(d.report == local, || {
            format!(
                "remote report for {} seed {} differs from the local run",
                d.req.kernel, d.req.campaign.seed
            )
        });
    }
    Ok(walls)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, NfpError> {
    let mut out = Outcome::default();
    let dir = ctx.out.join(format!("serve-{}", std::process::id()));
    let ((kernels, svc), setup_s) = ctx.tracer.span("harness", || {
        timed_setup(
            ctx,
            |rep| Ok((showcase_setup(ctx, rep > 0)?, Service::start(dir.clone())?)),
            |(_, svc)| svc.stop(false).map(drop),
        )
    })?;
    let setup_peak = crate::peak_rss_mb();
    eprintln!(
        "campaign_remote: set-up {setup_s:.3}s, coordinator on {}",
        svc.addr
    );

    if ctx.traced() {
        // Overhead baseline: one round, untraced.
        let t = Instant::now();
        let mut delivered = round(ctx, &Tracer::new(false), &svc, &kernels, 0, &mut out);
        let plain_wall = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let traced = ctx.tracer.span("harness", || {
            round(ctx, &ctx.tracer, &svc, &kernels, ROUND, &mut out)
        });
        out.set(
            "trace.overhead_ratio",
            t.elapsed().as_secs_f64() / plain_wall,
        );
        let fresh = |d: &[Delivered]| -> Vec<f64> {
            d.iter().filter(|d| !is_cached(d)).map(|d| d.wall).collect()
        };
        let traced_submit = median(&fresh(&traced));
        delivered.extend(traced);
        let (summary, journal_bytes) = svc.stop(true)?;
        let local = ctx
            .tracer
            .span("harness", || verify(ctx, &kernels, &delivered, &mut out))?;
        out.add_trace(&ctx.tracer);
        out.set("bench.serve.submit_median_s", traced_submit);
        out.set(
            "bench.serve.overhead_ratio",
            median(&fresh(&delivered)) / median(&local),
        );
        let simulated: u64 = delivered
            .iter()
            .filter(|d| !is_cached(d))
            .map(|d| injections_of(&d.report))
            .sum();
        out.set(
            "bench.servejournal.bytes_per_inj",
            journal_bytes as f64 / simulated as f64,
        );
        for (metric, label) in [
            ("bench.serve.redispatched", "re-dispatched"),
            ("bench.serve.speculated", "speculated"),
            ("bench.serve.audited", "ranges audited"),
            ("bench.serve.audit_passed", "passed"),
        ] {
            out.set(metric, note_count(&delivered, label));
        }
        out.set(
            "bench.serve.frames_rejected",
            summary.frames_rejected as f64,
        );
        out.set("bench.serve.peers_retired", summary.peers_retired as f64);
        out.set("bench.serve.reconnects", summary.reconnects as f64);
        out.set(
            "bench.serve.workers_convicted",
            summary.workers_convicted as f64,
        );
        out.set("bench.cache.hits", summary.cache_hits as f64);
        out.set("bench.cache.misses", summary.cache_misses as f64);
        return Ok(out);
    }

    // The timed body: whole rounds until the run length is used up.
    // After each round, a cross probe: `est_mips` and the errors come
    // from the estimate flow on the showcase kernels.
    let eval = Evaluation::new()?;
    let body = Instant::now();
    let mut rates = Vec::new();
    let mut probes = Vec::new();
    let mut rss = Vec::new();
    let mut delivered = Vec::new();
    let mut from = 0;
    while from == 0 || body.elapsed() < ctx.seconds {
        crate::reset_peak_rss();
        let t = Instant::now();
        let got = round(ctx, &ctx.tracer, &svc, &kernels, from, &mut out);
        let injections: u64 = got.iter().map(|d| injections_of(&d.report)).sum();
        rates.push(injections as f64 / t.elapsed().as_secs_f64());
        rss.push(crate::peak_rss_mb());
        delivered.extend(got);
        from += ROUND;
        for _ in 0..crate::estimate::PROBE_PASSES {
            crate::estimate::probe_sample(&eval, &kernels, &mut probes, &mut out)?;
        }
    }
    eprintln!(
        "campaign_remote: {from} submits, injections/s per round {rates:?}, probe Minstr/s {probes:?}"
    );
    svc.stop(true)?;
    out.set("setup_s", setup_s);
    out.set("inj_per_s", median(&rates));
    out.set("est_mips", median(&probes));
    out.set("peak_rss_mb", crate::rss_figure(setup_peak, &rss));
    verify(ctx, &kernels, &delivered, &mut out)?;
    Ok(out)
}
