//! Observer counts equal built-in counts: the Table III flow estimates
//! from the machine's own Table I counters on the testbed run, so
//! those counters must agree with a per-instruction `ClassCounter` and
//! with the traced fast path, for every quick HEVC kernel and
//! `fse_img00` in both float modes.

use nfp_bench::Mode;
use nfp_core::model::{FINE_INT_DIV, FINE_INT_MUL};
use nfp_core::{ClassCounter, Fine, Paper};
use nfp_sim::Dispatch;
use nfp_sparc::{Category, CATEGORY_COUNT};
use nfp_testbed::Testbed;
use nfp_workloads::{fse_kernels, hevc_kernels, machine_for, Kernel, Preset, KERNEL_BUDGET};

fn check_variant(testbed: &Testbed, kernel: &Kernel, mode: Mode) {
    let name = format!("{}_{}", kernel.name, mode.suffix());
    let machine = || machine_for(kernel, mode.float_mode()).expect("machine");

    // The fused pass: testbed run with a fine-grained counter riding it.
    let mut fine = ClassCounter::new(Fine);
    let fused = testbed
        .run_with(&mut machine(), kernel.seed, KERNEL_BUDGET, &mut fine)
        .expect("testbed run");
    let builtin = fused.run.counts.as_array().to_vec();

    // A separate observed count pass with the paper's classifier.
    let mut paper = ClassCounter::new(Paper);
    let observed = machine()
        .run_observed(KERNEL_BUDGET, &mut paper)
        .expect("observed run");

    // The unobserved traced fast path.
    let mut traced_machine = machine();
    traced_machine.set_dispatch(Dispatch::Traced);
    let traced = traced_machine.run(KERNEL_BUDGET).expect("traced run");

    assert_eq!(builtin, paper.counts(), "{name}: built-in vs observer");
    assert_eq!(
        traced.counts.as_array(),
        &builtin[..],
        "{name}: traced vs built-in"
    );
    assert_eq!(fused.run.instret, observed.instret, "{name}: instret");
    assert_eq!(fused.run.instret, traced.instret, "{name}: instret");
    assert_eq!(fused.run.counts.total(), fused.run.instret, "{name}");

    let mut merged = fine.counts().to_vec();
    merged[Category::IntArith.index()] += merged[FINE_INT_MUL] + merged[FINE_INT_DIV];
    merged.truncate(CATEGORY_COUNT);
    assert_eq!(merged, builtin, "{name}: Fine merged back into Paper");
}

#[test]
fn builtin_counts_match_observers_on_every_quick_hevc_kernel() {
    let testbed = Testbed::new();
    let kernels = hevc_kernels(&Preset::quick()).expect("kernels");
    assert_eq!(kernels.len(), 36);
    for kernel in &kernels {
        for mode in Mode::BOTH {
            check_variant(&testbed, kernel, mode);
        }
    }
}

#[test]
fn builtin_counts_match_observers_on_fse_img00() {
    let testbed = Testbed::new();
    let kernels = fse_kernels(&Preset::quick()).expect("kernels");
    let kernel = &kernels[0];
    assert_eq!(kernel.name, "fse_img00");
    for mode in Mode::BOTH {
        check_variant(&testbed, kernel, mode);
    }
}
