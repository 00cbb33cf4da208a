//! Assembly playground: write SPARC V8 assembly as text, assemble it,
//! execute it with a trace and a hotspot profile, and estimate its
//! non-functional properties — the full stack below the compiler.
//!
//! Run with: `cargo run --release --example assembler_lab`

use nfp_repro::core::{calibrate, Paper};
use nfp_repro::sim::{Machine, PcHistogram, Tracer, RAM_BASE};
use nfp_repro::sparc::{disasm, parse_program};
use nfp_repro::testbed::Testbed;

/// Euclid's algorithm on (91080, 43758), hand-written.
const SOURCE: &str = "
        ! gcd(%o0, %o1) by repeated remainder
        sethi %hi(0x16000), %o0
        or %o0, 0x3c8, %o0       ! 91080
        sethi %hi(0xaaee), %o1
        or %o1, 0x2ee, %o1       ! 43758 (%hi keeps the top 22 bits)
gcd:    subcc %o1, 0, %g0
        be done                  ! while (b != 0)
        nop
        wr %g0, 0, %y
        nop
        nop
        nop
        udiv %o0, %o1, %o2       ! q = a / b
        smul %o2, %o1, %o2       ! q * b
        sub %o0, %o2, %o2        ! r = a - q*b
        or %g0, %o1, %o0         ! a = b
        ba gcd
        or %g0, %o2, %o1         ! b = r (in the delay slot!)
done:   ta %g0 + 0
        nop
";

fn main() {
    let words = parse_program(SOURCE, RAM_BASE).expect("assembles");
    println!("assembled {} words:", words.len());
    print!("{}", disasm::disassemble_block(&words, RAM_BASE));

    // The category counts are built into every run; the observers add
    // the hotspot profile and the trace.
    let mut obs = (PcHistogram::new(RAM_BASE, words.len()), Tracer::new(12));
    let mut machine = Machine::boot(&words);
    let result = machine.run_observed(1_000_000, &mut obs).expect("runs");
    let (hist, tracer) = obs;

    println!("\nfirst {} executed instructions:", tracer.lines.len());
    for line in &tracer.lines {
        println!("  {line}");
    }
    // `ta 0` reports %o0, which holds `a` once b reaches zero.
    println!(
        "\ngcd(91080, 43758) = {} ({} instructions executed)",
        result.exit_code, result.instret
    );
    assert_eq!(result.exit_code, 198);

    println!("\ninstruction mix:");
    for (cat, n) in result.counts.iter() {
        if n > 0 {
            println!("  {:<20} {:>6}", cat.name(), n);
        }
    }
    println!("\nhottest instructions:");
    for (pc, count) in hist.hottest(5) {
        println!("  {pc:08x}  x{count}");
    }

    let testbed = Testbed::new();
    let cal = calibrate(&testbed, &Paper, 2).expect("calibration");
    let est = cal.model.estimate(result.counts.as_array());
    println!(
        "\nestimated cost on the LEON3-class board: {:.2} µs, {:.2} µJ",
        est.time_s * 1e6,
        est.energy_j * 1e6
    );
}
