//! Differential validation of batched NFP accounting: on real
//! workload kernels and on randomly generated SPARC programs, the
//! traced fast path — superblock traces and the flat dispatch table —
//! must be bit-identical to per-instruction stepping: category
//! counters, dynamic instruction count, exit status, CPU registers,
//! and RAM contents.

use nfp_cc::FloatMode;
use nfp_sim::fault::{inject, plan, undo, Fault, FaultSpace};
use nfp_sim::machine::TrapPolicy;
use nfp_sim::{Dispatch, Machine, RAM_BASE};
use nfp_workloads::synth::{random_program, ProgramShape};
use nfp_workloads::{fse_kernels, hevc_kernels, machine_for, Preset, KERNEL_BUDGET};
use proptest::prelude::*;

/// Runs `m` under `budget` and folds everything observable about the
/// final machine state into a comparable tuple. Errors (traps, budget
/// exhaustion) are part of the observation: all modes must fail the
/// same way at the same instant.
fn observe(
    mut m: Machine,
    dispatch: Dispatch,
    budget: u64,
) -> (String, u64, String, String, String) {
    m.set_dispatch(dispatch);
    let res = m.run(budget);
    (
        format!("{res:?}"),
        m.instret(),
        format!("{:?}", m.counts()),
        format!("{:?}", m.cpu),
        format!("{:?}", m.bus.snapshot_ram()),
    )
}

fn assert_kernel_modes_agree(kernel: &nfp_workloads::Kernel, mode: FloatMode) {
    let stepped = observe(
        machine_for(kernel, mode).expect("machine"),
        Dispatch::Step,
        KERNEL_BUDGET,
    );
    for dispatch in Dispatch::ALL {
        let batched = observe(
            machine_for(kernel, mode).expect("machine"),
            dispatch,
            KERNEL_BUDGET,
        );
        assert_eq!(
            stepped.0, batched.0,
            "{} [{mode:?}] {dispatch}: run result diverged",
            kernel.name
        );
        assert_eq!(
            stepped.1, batched.1,
            "{} [{mode:?}] {dispatch}: instret diverged",
            kernel.name
        );
        assert_eq!(
            stepped.2, batched.2,
            "{} [{mode:?}] {dispatch}: category counts diverged",
            kernel.name
        );
        assert_eq!(
            stepped.3, batched.3,
            "{} [{mode:?}] {dispatch}: CPU state diverged",
            kernel.name
        );
        assert_eq!(
            stepped.4, batched.4,
            "{} [{mode:?}] {dispatch}: RAM diverged",
            kernel.name
        );
    }
}

#[test]
fn fse_kernel_is_bit_identical_across_modes() {
    let kernels = fse_kernels(&Preset::quick()).expect("kernels");
    for mode in [FloatMode::Hard, FloatMode::Soft] {
        assert_kernel_modes_agree(&kernels[0], mode);
    }
}

#[test]
fn hevc_kernel_is_bit_identical_across_modes() {
    let kernels = hevc_kernels(&Preset::quick()).expect("kernels");
    assert_kernel_modes_agree(&kernels[0], FloatMode::Hard);
}

fn boot_synthetic(words: &[u32], policy: TrapPolicy) -> Machine {
    let mut m = Machine::boot(words);
    m.set_trap_policy(policy);
    m
}

/// Asserts all accelerated modes match stepping on `words`.
fn assert_synthetic_agrees(
    words: &[u32],
    policy: TrapPolicy,
    budget: u64,
) -> Result<(), TestCaseError> {
    let stepped = observe(boot_synthetic(words, policy), Dispatch::Step, budget);
    for dispatch in Dispatch::ALL {
        let batched = observe(boot_synthetic(words, policy), dispatch, budget);
        prop_assert_eq!(&stepped, &batched, "{} diverged from step", dispatch);
    }
    Ok(())
}

/// Injects `faults` at the machine's current instant if the replay up to
/// it (`pre`) succeeded, finishes the run, undoes the code patches, and
/// folds the outcome and the final state into a comparable tuple.
fn finish_faulted(
    m: &mut Machine,
    pre: String,
    faults: &[Fault],
) -> (String, String, u64, String, String, String) {
    let mut armed = Vec::new();
    if pre == "Ok(())" {
        for f in faults {
            armed.push(inject(m, f).expect("in-bounds injection"));
        }
    }
    let res = m.run(5_000);
    for a in &armed {
        undo(m, a).expect("undo patches back");
    }
    (
        pre,
        format!("{res:?}"),
        m.instret(),
        format!("{:?}", m.counts()),
        format!("{:?}", m.cpu),
        format!("{:?}", m.bus.snapshot_ram()),
    )
}

/// Cases per property: 48, or `PROPTEST_CASES` when it is set (the CI
/// fuzz job raises it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Random straight-line programs: every instruction is batchable,
    /// so this pins the flat-table accounting path
    /// (including the doubleword memory traffic the generator emits).
    #[test]
    fn straight_line_programs_agree(body in 4usize..120, seed in 0u64..10_000) {
        let words = random_program(body, seed, ProgramShape::StraightLine).expect("program");
        assert_synthetic_agrees(&words, TrapPolicy::Abort, 5_000)?;
    }

    /// Random branchy programs under both trap policies: annulled
    /// delay slots, loops that exhaust the budget mid-block (or
    /// mid-superblock), and falls off the image edge must all replay
    /// identically.
    #[test]
    fn branchy_programs_agree(body in 4usize..120, seed in 0u64..10_000, recover in 0u32..2) {
        let policy = if recover == 1 { TrapPolicy::Recover } else { TrapPolicy::Abort };
        let words = random_program(body, seed, ProgramShape::Branchy).expect("program");
        assert_synthetic_agrees(&words, policy, 5_000)?;
    }

    /// Programs whose final image word is the delay slot of a CTI: the
    /// batcher must hand over to the step path exactly at the image
    /// boundary rather than running past it.
    #[test]
    fn cti_tail_programs_agree(body in 2usize..60, seed in 0u64..10_000) {
        let words = random_program(body, seed, ProgramShape::CtiTail).expect("program");
        assert_synthetic_agrees(&words, TrapPolicy::Abort, 5_000)?;
    }

    /// SEU flips landing mid-superblock: split the run at an arbitrary
    /// instret (which in traced mode lands inside a formed trace of a
    /// branchy loop), inject a planned fault at the split point, and
    /// finish the run. Campaign replays must be bit-identical no
    /// matter which dispatch mode executes either half.
    ///
    /// A second fault B then checks rig reuse, where a code fault's
    /// in-place op-table patch and its undo must leave no trace: a
    /// warm rig that runs fault A, undoes it, restores the split-point
    /// checkpoint and runs B must end exactly like a freshly booted
    /// rig that runs only B, under every dispatch mode.
    #[test]
    fn faults_mid_superblock_agree(
        body in 8usize..80,
        seed in 0u64..10_000,
        split in 1u64..2_000,
        fault_seed in 0u64..10_000,
        fault_seed_b in 0u64..10_000,
    ) {
        let words = random_program(body, seed, ProgramShape::Branchy).expect("program");
        let space = FaultSpace {
            max_instret: split,
            code_len: words.len() as u32,
            ram_ranges: vec![(RAM_BASE, 4096)],
            fp: true,
        };
        let faults = plan(&space, 1, fault_seed);
        let faults_b = plan(&space, 1, fault_seed_b);
        // First half: stop exactly at the flip instant, even if it
        // lands inside a superblock.
        let boot_at_split = |dispatch: Dispatch| {
            let mut m = boot_synthetic(&words, TrapPolicy::Recover);
            m.set_dispatch(dispatch);
            let pre = format!("{:?}", m.run_until(split));
            (m, pre)
        };
        let observe_faulted = |dispatch: Dispatch| {
            let (mut m, pre) = boot_at_split(dispatch);
            finish_faulted(&mut m, pre, &faults)
        };
        let stepped = observe_faulted(Dispatch::Step);
        for dispatch in Dispatch::ALL {
            prop_assert_eq!(&stepped, &observe_faulted(dispatch), "{} diverged", dispatch);
        }
        for dispatch in Dispatch::ALL {
            let (mut warm, pre) = boot_at_split(dispatch);
            let cp = warm.checkpoint();
            finish_faulted(&mut warm, pre.clone(), &faults);
            warm.restore(&cp);
            let reused = finish_faulted(&mut warm, pre, &faults_b);
            let (mut fresh, pre) = boot_at_split(dispatch);
            let fresh = finish_faulted(&mut fresh, pre, &faults_b);
            prop_assert_eq!(&reused, &fresh, "{}: warm rig diverged from a fresh one", dispatch);
        }
    }
}

/// The generator shapes must actually reach RAM_BASE-relative code
/// (guards the literal the generator uses against drift).
#[test]
fn generator_base_matches_simulator_ram_base() {
    let words = random_program(4, 0, ProgramShape::StraightLine).expect("program");
    let m = Machine::boot(&words);
    assert_eq!(m.code_base(), RAM_BASE);
}
