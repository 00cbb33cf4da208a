//! The evaluation pipeline: calibration, per-kernel counting,
//! estimation, and ground-truth measurement.

use nfp_cc::FloatMode;
use nfp_core::{calibrate, Calibration, ClassCounter, Classifier, Estimate, NfpError, Paper};
use nfp_sim::{NullObserver, Observer};
use nfp_testbed::{HwTotals, MeasuredRun, Measurement, Testbed};
use nfp_workloads::{machine_for, Kernel, KERNEL_BUDGET};

/// Float ("with FPU") or fixed ("-msoft-float") kernel variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Float,
    Fixed,
}

impl Mode {
    /// Both variants, paper order.
    pub const BOTH: [Mode; 2] = [Mode::Float, Mode::Fixed];

    /// The compiler mode of this variant.
    pub fn float_mode(self) -> FloatMode {
        match self {
            Mode::Float => FloatMode::Hard,
            Mode::Fixed => FloatMode::Soft,
        }
    }

    /// Suffix used in kernel result names.
    pub fn suffix(self) -> &'static str {
        match self {
            Mode::Float => "float",
            Mode::Fixed => "fixed",
        }
    }

    /// Inverse of [`Mode::suffix`], for parsing journal headers and
    /// worker handshakes.
    pub fn from_suffix(s: &str) -> Option<Mode> {
        match s {
            "float" => Some(Mode::Float),
            "fixed" => Some(Mode::Fixed),
            _ => None,
        }
    }
}

/// `<kernel>_<float|fixed>`, the name of one kernel variant.
fn variant_name(kernel: &Kernel, mode: Mode) -> String {
    format!("{}_{}", kernel.name, mode.suffix())
}

/// Everything the pipeline learns about one kernel variant.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// `<kernel>_<float|fixed>`.
    pub name: String,
    /// The kernel's registry name (without variant suffix).
    pub base_name: String,
    /// Variant.
    pub mode: Mode,
    /// Per-class instruction counts from the ISS (the built-in Table I
    /// counters for [`Evaluation::run_kernel`]).
    pub counts: Vec<u64>,
    /// Model estimate (Eq. 1).
    pub estimate: Estimate,
    /// Instrument-reported ground truth.
    pub measured: Measurement,
    /// True (noise-free) hardware totals, for introspection.
    pub totals: HwTotals,
    /// Dynamic instruction count.
    pub instret: u64,
}

impl KernelResult {
    fn new(
        kernel: &Kernel,
        mode: Mode,
        counts: Vec<u64>,
        model: &nfp_core::CostModel,
        measured: MeasuredRun,
    ) -> Self {
        KernelResult {
            name: variant_name(kernel, mode),
            base_name: kernel.name.clone(),
            mode,
            estimate: model.estimate(&counts),
            counts,
            measured: measured.measurement,
            totals: measured.totals,
            instret: measured.run.instret,
        }
    }

    /// Signed relative time error (Eq. 3).
    pub fn time_error(&self) -> f64 {
        nfp_core::relative_error(self.estimate.time_s, self.measured.time_s)
    }

    /// Signed relative energy error (Eq. 3).
    pub fn energy_error(&self) -> f64 {
        nfp_core::relative_error(self.estimate.energy_j, self.measured.energy_j)
    }
}

/// A calibrated evaluation context.
pub struct Evaluation {
    /// The virtual board.
    pub testbed: Testbed,
    /// Calibration output (Table I).
    pub calibration: Calibration,
}

impl Evaluation {
    /// Calibrates the paper's nine-class model on a fresh testbed.
    pub fn new() -> Result<Self, NfpError> {
        let testbed = Testbed::new();
        let calibration = calibrate(&testbed, &Paper, 0xcafe)?;
        Ok(Evaluation {
            testbed,
            calibration,
        })
    }

    /// Runs one kernel variant through the full pipeline in a single
    /// simulation: the testbed run measures ground truth and verifies
    /// the functional output, and the estimate (Eq. 1) comes from that
    /// run's built-in Table I counters, never from the hardware model.
    pub fn run_kernel(&self, kernel: &Kernel, mode: Mode) -> Result<KernelResult, NfpError> {
        let measured = self.run_variant(kernel, mode, &mut NullObserver)?;
        let counts = measured.run.counts.as_array().to_vec();
        Ok(KernelResult::new(
            kernel,
            mode,
            counts,
            &self.calibration.model,
            measured,
        ))
    }

    /// Like [`Evaluation::run_kernel`] with an explicit classifier and
    /// model (for the granularity ablation). A [`ClassCounter`] rides
    /// the testbed run, so the ablation too simulates each variant once.
    pub fn run_kernel_with<C: Classifier + Clone>(
        &self,
        kernel: &Kernel,
        mode: Mode,
        classifier: &C,
        model: &nfp_core::CostModel,
    ) -> Result<KernelResult, NfpError> {
        let mut counter = ClassCounter::new(classifier.clone());
        let measured = self.run_variant(kernel, mode, &mut counter)?;
        Ok(KernelResult::new(
            kernel,
            mode,
            counter.counts().to_vec(),
            model,
            measured,
        ))
    }

    /// The one stepped run of a kernel variant on the testbed, with
    /// `extra` riding along, checked for exit code and output words.
    fn run_variant<O: Observer>(
        &self,
        kernel: &Kernel,
        mode: Mode,
        extra: &mut O,
    ) -> Result<MeasuredRun, NfpError> {
        let mut machine = machine_for(kernel, mode.float_mode())?;
        let measured = self
            .testbed
            .run_with(&mut machine, kernel.seed, KERNEL_BUDGET, extra)?;
        if measured.run.exit_code != 0 {
            return Err(NfpError::KernelFailed {
                kernel: variant_name(kernel, mode),
                exit_code: measured.run.exit_code,
            });
        }
        if measured.run.words != kernel.expected_words {
            return Err(NfpError::OutputMismatch {
                kernel: variant_name(kernel, mode),
            });
        }
        Ok(measured)
    }

    /// Runs every kernel in both variants (the paper's M = 2×|kernels|
    /// evaluation set).
    pub fn run_all(&self, kernels: &[Kernel]) -> Result<Vec<KernelResult>, NfpError> {
        let mut results = Vec::with_capacity(kernels.len() * 2);
        for kernel in kernels {
            for mode in Mode::BOTH {
                results.push(self.run_kernel(kernel, mode)?);
            }
        }
        Ok(results)
    }

    /// Like [`Evaluation::run_all`] but sweeping kernels across worker
    /// threads (each kernel variant runs on its own independent
    /// simulator instance; results keep deterministic order).
    pub fn run_all_parallel(&self, kernels: &[Kernel]) -> Result<Vec<KernelResult>, NfpError> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        let jobs: Vec<(usize, &Kernel, Mode)> = kernels
            .iter()
            .flat_map(|k| Mode::BOTH.map(|m| (k, m)))
            .enumerate()
            .map(|(i, (k, m))| (i, k, m))
            .collect();
        let names: Vec<String> = jobs.iter().map(|&(_, k, m)| variant_name(k, m)).collect();
        let slots: Vec<Mutex<Option<Result<KernelResult, NfpError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(jobs.len().max(1));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(slot, kernel, mode)) = jobs.get(i) else {
                        break;
                    };
                    let result = self.run_kernel(kernel, mode);
                    *slots[slot]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
                });
            }
        });
        collect_parallel_slots(slots, &names)
    }
}

/// Drains the per-job result slots of [`Evaluation::run_all_parallel`].
/// A slot its worker never filled (the worker died or exited early)
/// reports [`NfpError::WorkerLost`] naming the kernel variant, so an
/// operator knows exactly which job to rerun.
fn collect_parallel_slots(
    slots: Vec<std::sync::Mutex<Option<Result<KernelResult, NfpError>>>>,
    names: &[String],
) -> Result<Vec<KernelResult>, NfpError> {
    slots
        .into_iter()
        .zip(names)
        .map(|(slot, name)| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .ok_or_else(|| NfpError::WorkerLost { job: name.clone() })?
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_workloads::Preset;

    #[test]
    fn pipeline_produces_consistent_results_for_one_kernel() {
        let eval = Evaluation::new().unwrap();
        let kernels = nfp_workloads::hevc_kernels(&Preset::quick()).expect("kernels");
        let r = eval.run_kernel(&kernels[0], Mode::Float).unwrap();
        assert!(r.estimate.time_s > 0.0);
        assert!(r.estimate.energy_j > 0.0);
        assert!(r.measured.time_s > 0.0);
        assert!(r.measured.energy_j > 0.0);
        assert_eq!(r.counts.iter().sum::<u64>(), r.instret);
        // The estimate should already be in the right ballpark.
        assert!(
            r.time_error().abs() < 0.25,
            "time error {:.1}%",
            r.time_error() * 100.0
        );
        assert!(
            r.energy_error().abs() < 0.25,
            "energy error {:.1}%",
            r.energy_error() * 100.0
        );
    }

    #[test]
    fn lost_parallel_slot_names_the_kernel_variant() {
        use std::sync::Mutex;
        let slots = vec![Mutex::new(None)];
        let names = vec!["fse_img00_float".to_string()];
        match collect_parallel_slots(slots, &names) {
            Err(NfpError::WorkerLost { job }) => {
                assert_eq!(job, "fse_img00_float");
                let shown = NfpError::WorkerLost { job }.to_string();
                assert!(shown.contains("fse_img00_float"), "message: {shown}");
            }
            other => panic!("expected WorkerLost, got {:?}", other.map(|v| v.len())),
        }
    }

    #[test]
    fn fixed_variant_runs_longer_on_fse() {
        let eval = Evaluation::new().unwrap();
        let kernels = nfp_workloads::fse_kernels(&Preset::quick()).expect("kernels");
        let float = eval.run_kernel(&kernels[0], Mode::Float).unwrap();
        let fixed = eval.run_kernel(&kernels[0], Mode::Fixed).unwrap();
        assert!(fixed.measured.time_s > 3.0 * float.measured.time_s);
    }
}
