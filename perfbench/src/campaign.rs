//! The `campaign` workload: `run_supervised` as `repro campaign` runs
//! it (thread pool, no journal, `CampaignConfig` defaults apart from a
//! seeded plan) over the two showcase kernels, float variants.
//!
//! The traced run rebuilds each campaign from public `nfp-sim` calls
//! (golden run, checkpoint ladder, `fault::plan`, then per injection
//! `restore` + `run_until`, `inject`, escalating `run_watchdog`,
//! `undo`) and requires its report to be byte-identical to
//! `run_supervised`'s.

use crate::{mix, showcase_setup, timed_setup, Ctx, Outcome, Size};
use nfp_bench::{
    report_campaign, run_supervised, CampaignConfig, CampaignResult, Evaluation, InjectionRecord,
    Mode, SupervisorConfig, SupervisorOutcome,
};
use nfp_core::{NfpError, Outcome as Verdict, VulnerabilityReport};
use nfp_sim::fault::{inject, plan, undo};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{
    Checkpoint, DispatchStats, Fault, FaultSpace, FaultTarget, Machine, RunResult, SimError,
    Watchdog,
};
use nfp_workloads::{machine_for, Kernel, KERNEL_BUDGET};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Injections per kernel per round.
fn injections(ctx: &Ctx) -> usize {
    match ctx.size {
        Size::Full => 400,
        Size::Tiny => 24,
    }
}

/// The fixed campaign every run checks against `expected/`: the
/// default seed's plan, this many injections per showcase kernel.
const VERIFY_INJECTIONS: usize = 100;

/// `report_campaign` text of the verification campaigns, then one
/// `golden <kernel> <instret> <traced> <batched> <stepped>` line per
/// showcase kernel.
const EXPECTED: &str = include_str!("../expected/campaign_reports.txt");

/// The campaign config of round `round` on showcase kernel `k`.
pub fn round_config(seed: u64, round: u64, k: usize, injections: usize) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed: mix(seed ^ (round << 8) ^ k as u64),
        ..CampaignConfig::default()
    }
}

fn supervised(kernel: &Kernel, cfg: CampaignConfig) -> Result<SupervisorOutcome, NfpError> {
    run_supervised(kernel, Mode::Float, &SupervisorConfig::new(cfg))
}

/// Counts a supervised campaign into `out`; returns its injections.
fn tally(out: &mut Outcome, o: &SupervisorOutcome, planned: usize) -> u64 {
    let done = o.result.outcome_totals().total();
    let harness = o.result.outcome_totals().get(Verdict::HarnessFault);
    out.attempted += planned as u64;
    out.failed += o.quarantined.len().max(harness as usize) as u64 + (planned as u64 - done);
    done - harness
}

/// Compares a campaign's golden run with the committed one: the
/// instruction count gates, the dispatch split is reported.
fn check_golden(out: &mut Outcome, kernel: &str, o: &SupervisorOutcome) {
    let line = EXPECTED
        .lines()
        .find(|l| l.split(' ').nth(1) == Some(kernel) && l.starts_with("golden "));
    let Some(line) = line else {
        out.errors
            .push(format!("{kernel}: no committed golden record"));
        return;
    };
    let f: Vec<u64> = line
        .split(' ')
        .skip(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    out.check(f.first() == Some(&o.result.golden_instret), || {
        format!(
            "{kernel}: golden instret {} differs from the committed {line}",
            o.result.golden_instret
        )
    });
    let d = o.dispatch;
    if f.get(1..4) != Some(&[d.traced, d.batched, d.stepped][..]) {
        eprintln!(
            "campaign: behaviour change: {kernel} golden dispatch split {} traced, {} batched, \
             {} stepped (committed: {line})",
            d.traced, d.batched, d.stepped
        );
    }
}

/// The verification campaigns, rendered like `expected/`.
fn verification_text(kernels: &[Kernel]) -> Result<(String, Vec<SupervisorOutcome>), NfpError> {
    let mut text = String::new();
    let mut outcomes = Vec::new();
    for kernel in kernels {
        let o = supervised(
            kernel,
            CampaignConfig {
                injections: VERIFY_INJECTIONS,
                seed: crate::DEFAULT_SEED,
                ..CampaignConfig::default()
            },
        )?;
        text.push_str(&report_campaign(&o.result));
        text.push('\n');
        outcomes.push(o);
    }
    for (kernel, o) in kernels.iter().zip(&outcomes) {
        let d = o.dispatch;
        text.push_str(&format!(
            "golden {} {} {} {} {}\n",
            kernel.name, o.result.golden_instret, d.traced, d.batched, d.stepped
        ));
    }
    Ok((text, outcomes))
}

/// Runs the verification campaigns and checks them against `expected/`.
pub fn verify(out: &mut Outcome, kernels: &[Kernel]) -> Result<(), NfpError> {
    let (text, outcomes) = verification_text(kernels)?;
    let reports_end = text.find("golden ").unwrap_or(text.len());
    let expected_end = EXPECTED.find("golden ").unwrap_or(EXPECTED.len());
    out.check(text[..reports_end] == EXPECTED[..expected_end], || {
        format!("verification campaigns differ from expected/campaign_reports.txt:\n{text}")
    });
    for (kernel, o) in kernels.iter().zip(&outcomes) {
        check_golden(out, &kernel.name, o);
    }
    Ok(())
}

pub fn write_expected(dir: &std::path::Path, kernels: &[Kernel]) -> Result<(), NfpError> {
    let (text, _) = verification_text(kernels)?;
    std::fs::write(dir.join("campaign_reports.txt"), text).map_err(|e| NfpError::Workload {
        what: "expected files".to_string(),
        reason: e.to_string(),
    })
}

/// Cross-probe campaigns after each body unit of a workload that runs
/// no campaign.
pub const PROBE_CAMPAIGNS: usize = 6;

/// Injections of one cross-probe campaign.
const PROBE_INJECTIONS: usize = 50;

/// Cross probe for workloads that run no campaign: one supervised
/// campaign on `kernel` (its `i`-th, seeded apart from the workload's
/// own plans). Returns its injections per second.
pub fn probe_sample(
    ctx: &Ctx,
    kernel: &Kernel,
    i: u64,
    out: &mut Outcome,
) -> Result<f64, NfpError> {
    let t = Instant::now();
    let o = supervised(kernel, round_config(!ctx.seed, i, 0, PROBE_INJECTIONS))?;
    let rate = PROBE_INJECTIONS as f64 / t.elapsed().as_secs_f64();
    out.check(
        o.quarantined.is_empty() && o.completed == PROBE_INJECTIONS,
        || "probe campaign did not classify every injection".to_string(),
    );
    Ok(rate)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, NfpError> {
    let mut out = Outcome::default();
    let (kernels, setup_s) = ctx.tracer.span("harness", || {
        timed_setup(ctx, |rep| showcase_setup(ctx, rep > 0), |_| Ok(()))
    })?;
    let setup_peak = crate::peak_rss_mb();
    let n = injections(ctx);
    eprintln!("campaign: set-up {setup_s:.3}s, {n} injections per kernel per round");

    if ctx.traced() {
        // Overhead baseline: round 0, untraced inside `run_supervised`.
        let t = Instant::now();
        let mut plain = Vec::new();
        for (k, kernel) in kernels.iter().enumerate() {
            let o = ctx.tracer.span("bench.supervisor.run", || {
                supervised(kernel, round_config(ctx.seed, 0, k, n))
            })?;
            out.add("bench.supervisor.quarantined", o.quarantined.len() as f64);
            out.add("bench.supervisor.kills", o.kills as f64);
            plain.push(report_campaign(&o.result));
        }
        let plain_wall = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut stats = ReplayStats::default();
        for (k, kernel) in kernels.iter().enumerate() {
            let cfg = round_config(ctx.seed, 0, k, n);
            let result = ctx
                .tracer
                .span("harness", || replay_traced(ctx, kernel, &cfg, &mut stats))?;
            out.attempted += n as u64;
            out.check(report_campaign(&result) == plain[k], || {
                format!(
                    "{}: traced replica's report differs from run_supervised's",
                    kernel.name
                )
            });
            let totals = result.outcome_totals();
            out.add("bench.campaign.masked", totals.get(Verdict::Masked) as f64);
            out.add("bench.campaign.sdc", totals.get(Verdict::Sdc) as f64);
            out.add("bench.campaign.trap", totals.get(Verdict::Trap) as f64);
            out.add("bench.campaign.hang", totals.get(Verdict::Hang) as f64);
        }
        out.set(
            "trace.overhead_ratio",
            t.elapsed().as_secs_f64() / plain_wall,
        );
        stats.report(ctx, &mut out);
        out.add_trace(&ctx.tracer);
        return Ok(out);
    }

    // The timed body: rounds (one campaign per showcase kernel) until
    // the run length is used up. After each round, a cross probe: the
    // campaign runs no Table III sweep, so `est_mips` and the errors
    // come from the estimate flow on the same kernels.
    let eval = Evaluation::new()?;
    let body = Instant::now();
    let mut rates = Vec::new();
    let mut probes = Vec::new();
    let mut rss = Vec::new();
    let mut round = 0u64;
    while round == 0 || body.elapsed() < ctx.seconds {
        crate::reset_peak_rss();
        let t = Instant::now();
        let mut done = 0u64;
        for (k, kernel) in kernels.iter().enumerate() {
            match supervised(kernel, round_config(ctx.seed, round, k, n)) {
                Ok(o) => {
                    done += tally(&mut out, &o, n);
                    if round == 0 {
                        check_golden(&mut out, &kernel.name, &o);
                    }
                }
                Err(e) => {
                    out.attempted += n as u64;
                    out.failed += n as u64;
                    out.errors
                        .push(format!("{}: campaign failed: {e}", kernel.name));
                }
            }
        }
        rates.push(done as f64 / t.elapsed().as_secs_f64());
        rss.push(crate::peak_rss_mb());
        for _ in 0..crate::estimate::PROBE_PASSES {
            crate::estimate::probe_sample(&eval, &kernels, &mut probes, &mut out)?;
        }
        round += 1;
    }
    eprintln!("campaign: {round} rounds, injections/s {rates:?}, probe Minstr/s {probes:?}");
    out.set("setup_s", setup_s);
    out.set("inj_per_s", crate::median(&rates));
    out.set("est_mips", crate::median(&probes));
    out.set("peak_rss_mb", crate::rss_figure(setup_peak, &rss));
    verify(&mut out, &kernels)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// The traced replica of `run_supervised`'s thread pool.
// ---------------------------------------------------------------------

/// Counters the replica gathers across all its rigs.
#[derive(Default)]
struct ReplayStats {
    restore_bytes: u64,
    seek_instr: u64,
    post_instr: u64,
    escalations: u64,
    traced: u64,
    batched: u64,
    stepped: u64,
}

impl ReplayStats {
    fn add(&mut self, o: &ReplayStats) {
        self.restore_bytes += o.restore_bytes;
        self.seek_instr += o.seek_instr;
        self.post_instr += o.post_instr;
        self.escalations += o.escalations;
        self.traced += o.traced;
        self.batched += o.batched;
        self.stepped += o.stepped;
    }

    fn report(&self, ctx: &Ctx, out: &mut Outcome) {
        out.set("sim.restore_bytes", self.restore_bytes as f64);
        out.set("sim.seek_instr", self.seek_instr as f64);
        out.set("sim.post_instr", self.post_instr as f64);
        out.set("bench.campaign.escalations", self.escalations as f64);
        out.set("sim.traced", self.traced as f64);
        out.set("sim.batched", self.batched as f64);
        out.set("sim.stepped", self.stepped as f64);
        out.set(
            "bench.campaign.useful_frac",
            self.post_instr as f64 / (self.seek_instr + self.post_instr) as f64,
        );
        let post_s: f64 = ctx
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "sim.post")
            .map(|s| s.end - s.start)
            .sum();
        out.set("sim.post_mips", self.post_instr as f64 / post_s / 1e6);
    }
}

/// A campaign rig as `CampaignRig::prepare` builds it.
struct Rig {
    machine: Machine,
    ladder: Vec<Checkpoint>,
    golden: RunResult,
    budget: u64,
    escalation: u32,
    dispatch0: DispatchStats,
}

fn fresh_machine(ctx: &Ctx, kernel: &Kernel, cfg: &CampaignConfig) -> Result<Machine, NfpError> {
    let mut m = ctx.tracer.span("workloads.machine_for", || {
        machine_for(kernel, Mode::Float.float_mode())
    })?;
    m.set_trap_policy(TrapPolicy::Recover);
    m.set_dispatch(cfg.dispatch);
    Ok(m)
}

fn merge_ranges(mut ranges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    ranges.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(ranges.len());
    for (start, end) in ranges {
        match merged.last_mut() {
            Some((_, last_end)) if start <= *last_end => *last_end = (*last_end).max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

fn prepare(
    ctx: &Ctx,
    kernel: &Kernel,
    cfg: &CampaignConfig,
) -> Result<(Rig, FaultSpace), NfpError> {
    let tr = &ctx.tracer;
    let mut probe = fresh_machine(ctx, kernel, cfg)?;
    let golden = tr.span("bench.campaign.golden", || probe.run(KERNEL_BUDGET))?;
    if golden.exit_code != 0 || golden.words != kernel.expected_words {
        return Err(NfpError::OutputMismatch {
            kernel: format!("{}_float", kernel.name),
        });
    }
    let mut ram_ranges = probe.bus.pristine_ranges();
    ram_ranges.extend(probe.bus.dirty_ranges());
    let space = FaultSpace {
        max_instret: golden.instret.saturating_sub(1),
        code_len: probe.code_len() as u32,
        ram_ranges: merge_ranges(ram_ranges),
        fp: probe.config().fpu_enabled,
    };
    let mut machine = fresh_machine(ctx, kernel, cfg)?;
    let steps = cfg.checkpoints.max(1) as u64;
    let ladder = tr.span("bench.campaign.golden", || {
        (0..steps)
            .map(|i| {
                machine.run_until(golden.instret * i / steps)?;
                Ok(machine.checkpoint())
            })
            .collect::<Result<Vec<_>, SimError>>()
    })?;
    let rig = Rig {
        dispatch0: machine.dispatch_stats(),
        machine,
        ladder,
        budget: 2 * golden.instret + 10_000,
        golden,
        escalation: cfg.escalation.max(1),
    };
    Ok((rig, space))
}

impl Rig {
    /// `CampaignRig::run_one`, one span per layer call.
    fn run_one(
        &mut self,
        ctx: &Ctx,
        fault: &Fault,
        stats: &mut ReplayStats,
    ) -> Result<InjectionRecord, NfpError> {
        let tr = &ctx.tracer;
        let cp = self
            .ladder
            .iter()
            .rev()
            .find(|cp| cp.instret() <= fault.at)
            .ok_or(NfpError::Empty {
                what: "checkpoint ladder",
            })?;
        tr.span("sim.restore", || self.machine.restore(cp));
        stats.restore_bytes += cp.ram_bytes() as u64;
        stats.seek_instr += fault.at - cp.instret();
        tr.span("sim.seek", || self.machine.run_until(fault.at))?;
        let category = tr.span("bench.campaign.classify", || match fault.target {
            FaultTarget::Code { index, .. } => self.machine.code_category(index as usize),
            _ => self.machine.next_category(),
        });
        let armed = tr.span("sim.fault", || inject(&mut self.machine, fault))?;
        let soft = self.budget.saturating_sub(fault.at).max(1);
        let before = self.machine.instret();
        let run = tr.span("sim.post", || {
            let mut tier = 0;
            loop {
                let start = self.machine.instret();
                let run = self.machine.run_watchdog(&Watchdog {
                    max_instrs: soft,
                    wall: None,
                });
                tier += 1;
                match run {
                    Err(SimError::WatchdogExpired { .. })
                        if tier < self.escalation
                            && self.machine.instret().wrapping_sub(start) >= soft =>
                    {
                        stats.escalations += 1;
                    }
                    other => return other,
                }
            }
        });
        stats.post_instr += self.machine.instret() - before;
        tr.span("sim.fault", || undo(&mut self.machine, &armed))?;
        let outcome = tr.span("bench.campaign.classify", || match run {
            Ok(r) => {
                if r.exit_code == self.golden.exit_code
                    && r.words == self.golden.words
                    && r.text == self.golden.text
                {
                    Ok(Verdict::Masked)
                } else {
                    Ok(Verdict::Sdc)
                }
            }
            Err(SimError::Trap(_)) | Err(SimError::UnknownSoftTrap { .. }) => Ok(Verdict::Trap),
            Err(SimError::WatchdogExpired { .. }) => Ok(Verdict::Hang),
            Err(e) => Err(NfpError::from(e)),
        })?;
        Ok(InjectionRecord {
            fault: *fault,
            category,
            outcome,
        })
    }

    fn add_dispatch(&self, stats: &mut ReplayStats) {
        let d = self.machine.dispatch_stats();
        stats.traced += d.traced - self.dispatch0.traced;
        stats.batched += d.batched - self.dispatch0.batched;
        stats.stepped += d.stepped - self.dispatch0.stepped;
    }
}

/// `run_supervised` in thread mode, rebuilt: a rig on the calling
/// thread for the plan, then one rig per worker pulling plan indices
/// from a shared counter.
fn replay_traced(
    ctx: &Ctx,
    kernel: &Kernel,
    cfg: &CampaignConfig,
    stats: &mut ReplayStats,
) -> Result<CampaignResult, NfpError> {
    let tr = &ctx.tracer;
    let (rig, space) = prepare(ctx, kernel, cfg)?;
    let faults = tr.span("sim.plan", || plan(&space, cfg.injections, cfg.seed));
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, faults.len().max(1));
    let slots: Vec<Mutex<Option<InjectionRecord>>> =
        faults.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let shared = Mutex::new((ReplayStats::default(), None::<NfpError>));
    tr.span("wait.campaign", || {
        let parent = tr.current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    tr.adopt(parent, || {
                        tr.span("wait.worker", || {
                            let mut local = ReplayStats::default();
                            let result = (|| {
                                let (mut rig, _) = prepare(ctx, kernel, cfg)?;
                                loop {
                                    let index = next.fetch_add(1, Ordering::Relaxed);
                                    let Some(fault) = faults.get(index) else {
                                        break;
                                    };
                                    let record = rig.run_one(ctx, fault, &mut local)?;
                                    *slots[index].lock().expect("record slot poisoned") =
                                        Some(record);
                                }
                                rig.add_dispatch(&mut local);
                                Ok::<(), NfpError>(())
                            })();
                            let mut s = shared.lock().expect("replay stats poisoned");
                            s.0.add(&local);
                            if let Err(e) = result {
                                s.1.get_or_insert(e);
                            }
                        })
                    })
                });
            }
        });
    });
    let (local, error) = shared.into_inner().expect("replay stats poisoned");
    if let Some(e) = error {
        return Err(e);
    }
    stats.add(&local);
    let records: Vec<InjectionRecord> = slots
        .into_iter()
        .map(|s| s.into_inner().expect("record slot poisoned"))
        .collect::<Option<_>>()
        .ok_or(NfpError::Empty {
            what: "replayed records",
        })?;
    let mut report = VulnerabilityReport::new();
    for r in &records {
        report.record(r.category, r.outcome);
    }
    Ok(CampaignResult {
        name: format!("{}_float", kernel.name),
        golden_instret: rig.golden.instret,
        golden_recovered_traps: rig.golden.recovered_traps,
        report,
        records,
    })
}
