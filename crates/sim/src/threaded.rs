//! The predecoded op table — the one executable semantics of every
//! linear instruction — and the superblock traces behind
//! [`Dispatch::Traced`](crate::Dispatch::Traced).
//!
//! Loading an image predecodes each instruction once into a 16-byte
//! [`DecodedOp`]: an [`OpKind`] tag plus operands, with every shape
//! decision (immediate vs register, load width, signedness, ALU
//! opcode, FPU presence, register-pair evenness) made at predecode.
//! [`exec_op`] executes an op with one match on the tag and no
//! decode. Both dispatch paths run it: `step` with `OBSERVE = true`,
//! filling the observer's [`ExecInfo`], and the traced hot loops with
//! `OBSERVE = false`, where the record bookkeeping compiles away.
//!
//! On top of the flat table, [`TraceCache`] forms **superblocks**:
//! instruction traces that chain basic blocks across
//! statically-predicted branches (backward-taken/forward-not-taken)
//! and their delay slots, so a whole inner-loop iteration retires
//! without returning to the machine dispatcher. Predictions are
//! enforced at run time by guard ops that evaluate the condition from
//! a precomputed truth-table mask and side-exit with the exact
//! architectural `pc`/`npc` the stepping path would have produced.
//! Straight-line code that forms no trace runs through the flat table
//! ([`run_ops`]).
//!
//! Bit-identity with the stepping path is preserved the same way the
//! block cache preserves it: every structure here is a pure function
//! of the predecoded image, so
//! [`Machine::patch_code_word`](crate::Machine::patch_code_word) (and
//! with it every fault-injection code flip and undo) re-predecodes the
//! patched table entry in place and drops the traces, which the next
//! run rebuilds from the patched stream.

use std::collections::HashSet;

use crate::blocks::{leaders, BlockCache};
use crate::bus::Bus;
use crate::cpu::Cpu;
use crate::exec::{compare, exec_alu, fault_to_trap, ExecError, ExecInfo, Trap};
use nfp_sparc::cond::FccValue;
use nfp_sparc::{
    AluOp, Category, CategoryCounts, FCond, FReg, FpOp, ICond, Instr, MemSize, Operand, Reg,
};

/// Upper bound on superblock length, in trace ops. Bounds both build
/// time and the budget slack a trace needs before the run loop may
/// enter it (`run_until` exactness: a trace is only entered when the
/// whole trace fits in the remaining instruction budget).
pub(crate) const MAX_TRACE_OPS: usize = 256;

/// Control-flow verdict of one predecoded op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Sequential: fall through to the next op in the table/trace.
    Next,
    /// Side exit: the op has written the architectural `pc`/`npc` to
    /// follow; the trace stops here (the op itself retired).
    Exit,
}

/// What a predecoded op does; [`exec_op`] matches on it. Predecode
/// gives every table and trace entry one of these, and `aux` refines
/// it where a kind covers several shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum OpKind {
    /// Retires with no architectural effect (`nop`, `flush`, and
    /// in-trace retired `ba`); `imm` holds a discarded `sethi` value,
    /// which only the observer record reads.
    Nop,
    /// `sethi` with a live destination; `imm` is precomputed.
    Sethi,
    /// Integer ALU, immediate form; `aux` is the `AluOp` discriminant.
    AluImm,
    /// Integer ALU, register form; `aux` is the `AluOp` discriminant.
    AluReg,
    /// Integer load, immediate form; `aux` = size code | signed << 2.
    LoadImm,
    /// Integer load, register form; `aux` as for `LoadImm`.
    LoadReg,
    /// Integer store, immediate form; `aux` = size code.
    StoreImm,
    /// Integer store, register form; `aux` = size code.
    StoreReg,
    /// Predicted-taken icc guard (non-annulling).
    GuardTaken,
    /// Predicted-taken icc guard (annulling).
    GuardTakenAnnul,
    /// Predicted-not-taken icc guard.
    GuardUntaken,
    /// Predicted-taken fcc guard (non-annulling).
    GuardFTaken,
    /// Predicted-taken fcc guard (annulling).
    GuardFTakenAnnul,
    /// Predicted-not-taken fcc guard.
    GuardFUntaken,
    /// In-trace `call`: links `%o7`, continuation is inlined.
    CallLink,
    /// `rd %y`.
    RdY,
    /// `wr %y`, immediate form.
    WrYImm,
    /// `wr %y`, register form.
    WrYReg,
    /// `save`, immediate form.
    SaveImm,
    /// `save`, register form.
    SaveReg,
    /// `restore`, immediate form.
    RestoreImm,
    /// `restore`, register form.
    RestoreReg,
    /// FP load, immediate form; `aux` = 1 for a double.
    LoadFImm,
    /// FP load, register form; `aux` = 1 for a double.
    LoadFReg,
    /// FP store, immediate form; `aux` = 1 for a double.
    StoreFImm,
    /// FP store, register form; `aux` = 1 for a double.
    StoreFReg,
    /// FP arithmetic; `aux` is the `FpOp` discriminant.
    Fp,
    /// `fcmps`.
    FCmpS,
    /// `fcmpd`.
    FCmpD,
    /// Always-trapping entry; `aux` selects the error (see
    /// [`stub_err`]).
    Stub,
}

/// Predecoded op record. One fixed shape for every instruction keeps
/// the dispatch table flat (`Vec<DecodedOp>`), with fields reused per
/// form: `imm` is the immediate operand, the precomputed `sethi`
/// value, the branch target of an untaken-guard, or the raw word of an
/// illegal instruction; `mask` is the guard truth-table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedOp {
    /// The instruction's own address (trap payloads, guard exits).
    pub pc: u32,
    /// Immediate / precomputed value / guard target / illegal word.
    pub imm: u32,
    /// Condition truth-table for guard ops (see [`icc_mask`]).
    pub mask: u16,
    /// Destination register number.
    pub rd: u8,
    /// First source register number.
    pub rs1: u8,
    /// Second source register number (register-form `op2`).
    pub rs2: u8,
    /// Dispatch tag (see [`OpKind`]).
    pub kind: OpKind,
    /// Kind-specific selector (ALU opcode, load/store size code).
    pub aux: u8,
}

/// `DecodedOp` is sized to pack two entries per 32-byte half cache
/// line. Growing it is a measurable dispatch regression, so the layout
/// is pinned here.
const _: () = assert!(std::mem::size_of::<DecodedOp>() == 16);

impl DecodedOp {
    fn at(pc: u32, kind: OpKind) -> Self {
        DecodedOp {
            pc,
            imm: 0,
            mask: 0,
            rd: 0,
            rs1: 0,
            rs2: 0,
            kind,
            aux: 0,
        }
    }

    /// The entry of a block-ending instruction, which has no linear
    /// semantics: executing it reports the routing violation (see
    /// [`stub_err`]).
    pub(crate) fn not_linear(pc: u32) -> Self {
        DecodedOp {
            aux: 4,
            ..DecodedOp::at(pc, OpKind::Stub)
        }
    }
}

/// Register numbers in `DecodedOp` come from `Reg::num()` so they are
/// always `< 32`; the mask keeps that invariant visible to the
/// constructor so no bounds branch survives in the hot path.
#[inline(always)]
fn reg(n: u8) -> Reg {
    Reg::new(n & 31)
}

#[inline(always)]
fn freg(n: u8) -> FReg {
    FReg::new(n & 31)
}

#[inline(always)]
fn op2_val<const IMM: bool>(cpu: &Cpu, op: &DecodedOp) -> u32 {
    if IMM {
        op.imm
    } else {
        cpu.get(reg(op.rs2))
    }
}

// ---------------------------------------------------------------------------
// Linear op semantics. With `OBSERVE`, each executor also fills the
// observer record: `result_ones` (the popcount of the value produced,
// even when `rd` is `%g0`), `mem_addr`, and `fpu_rs2_bits`.
// ---------------------------------------------------------------------------

/// `AluOp` variants in declaration order, so the `AluOp::X as u8`
/// stored in `aux` indexes back to the variant.
const ALU_OPS: [AluOp; 31] = [
    AluOp::Add,
    AluOp::AddCc,
    AluOp::AddX,
    AluOp::AddXCc,
    AluOp::Sub,
    AluOp::SubCc,
    AluOp::SubX,
    AluOp::SubXCc,
    AluOp::And,
    AluOp::AndCc,
    AluOp::AndN,
    AluOp::AndNCc,
    AluOp::Or,
    AluOp::OrCc,
    AluOp::OrN,
    AluOp::OrNCc,
    AluOp::Xor,
    AluOp::XorCc,
    AluOp::XNor,
    AluOp::XNorCc,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::UMul,
    AluOp::UMulCc,
    AluOp::SMul,
    AluOp::SMulCc,
    AluOp::UDiv,
    AluOp::UDivCc,
    AluOp::SDiv,
    AluOp::SDivCc,
];

#[inline(always)]
fn exec_alu_op<const OBSERVE: bool>(
    cpu: &mut Cpu,
    op: &DecodedOp,
    b: u32,
    info: &mut ExecInfo,
) -> Result<Flow, ExecError> {
    let a = cpu.get(reg(op.rs1));
    let r = exec_alu(cpu, ALU_OPS[op.aux as usize], a, b, op.pc)?;
    cpu.set(reg(op.rd), r);
    if OBSERVE {
        info.result_ones = r.count_ones();
    }
    Ok(Flow::Next)
}

fn exec_wry<const IMM: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    cpu.y = cpu.get(reg(op.rs1)) ^ op2_val::<IMM>(cpu, op);
    Ok(Flow::Next)
}

fn exec_save<const IMM: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    // Source operands are read in the OLD window, the result is
    // written in the NEW window.
    let a = cpu.get(reg(op.rs1));
    let b = op2_val::<IMM>(cpu, op);
    if !cpu.window_save() {
        return Err(Trap::WindowOverflow { pc: op.pc }.into());
    }
    cpu.set(reg(op.rd), a.wrapping_add(b));
    Ok(Flow::Next)
}

fn exec_restore<const IMM: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    let a = cpu.get(reg(op.rs1));
    let b = op2_val::<IMM>(cpu, op);
    if !cpu.window_restore() {
        return Err(Trap::WindowUnderflow { pc: op.pc }.into());
    }
    cpu.set(reg(op.rd), a.wrapping_add(b));
    Ok(Flow::Next)
}

/// Records a memory access: its address and the popcount of the value
/// moved (for a store, the whole source register or pair).
#[inline(always)]
fn observe_mem<const OBSERVE: bool>(info: &mut ExecInfo, addr: u32, v: u64) {
    if OBSERVE {
        info.mem_addr = Some(addr);
        info.result_ones = v.count_ones();
    }
}

/// `SIZE`: 0 = byte, 1 = half, 2 = word, 3 = doubleword (odd-`rd`
/// doublewords are predecoded to a [`OpKind::Stub`]).
#[inline(always)]
fn exec_load<const SIZE: u8, const SIGNED: bool, const IMM: bool, const OBSERVE: bool>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    op: &DecodedOp,
    info: &mut ExecInfo,
) -> Result<Flow, ExecError> {
    let addr = cpu.get(reg(op.rs1)).wrapping_add(op2_val::<IMM>(cpu, op));
    let map = |e| ExecError::Trap(fault_to_trap(op.pc, e));
    let v = match SIZE {
        0 => {
            let v = bus.load8(addr).map_err(map)? as u32;
            let v = if SIGNED {
                v as u8 as i8 as i32 as u32
            } else {
                v
            };
            cpu.set(reg(op.rd), v);
            v as u64
        }
        1 => {
            let v = bus.load16(addr).map_err(map)? as u32;
            let v = if SIGNED {
                v as u16 as i16 as i32 as u32
            } else {
                v
            };
            cpu.set(reg(op.rd), v);
            v as u64
        }
        2 => {
            let v = bus.load32(addr).map_err(map)?;
            cpu.set(reg(op.rd), v);
            v as u64
        }
        _ => {
            let v = bus.load64(addr).map_err(map)?;
            cpu.set(reg(op.rd), (v >> 32) as u32);
            cpu.set(reg(op.rd + 1), v as u32);
            v
        }
    };
    observe_mem::<OBSERVE>(info, addr, v);
    Ok(Flow::Next)
}

#[inline(always)]
fn exec_store<const SIZE: u8, const IMM: bool, const OBSERVE: bool>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    op: &DecodedOp,
    info: &mut ExecInfo,
) -> Result<Flow, ExecError> {
    let addr = cpu.get(reg(op.rs1)).wrapping_add(op2_val::<IMM>(cpu, op));
    let map = |e| ExecError::Trap(fault_to_trap(op.pc, e));
    let v = cpu.get(reg(op.rd));
    let v = match SIZE {
        0 => {
            bus.store8(addr, v as u8).map_err(map)?;
            v as u64
        }
        1 => {
            bus.store16(addr, v as u16).map_err(map)?;
            v as u64
        }
        2 => {
            bus.store32(addr, v).map_err(map)?;
            v as u64
        }
        _ => {
            let lo = cpu.get(reg(op.rd + 1));
            let dv = ((v as u64) << 32) | lo as u64;
            bus.store64(addr, dv).map_err(map)?;
            dv
        }
    };
    observe_mem::<OBSERVE>(info, addr, v);
    Ok(Flow::Next)
}

fn exec_loadf<const DOUBLE: bool, const IMM: bool, const OBSERVE: bool>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    op: &DecodedOp,
    info: &mut ExecInfo,
) -> Result<Flow, ExecError> {
    let addr = cpu.get(reg(op.rs1)).wrapping_add(op2_val::<IMM>(cpu, op));
    let map = |e| ExecError::Trap(fault_to_trap(op.pc, e));
    let v = if DOUBLE {
        let v = bus.load64(addr).map_err(map)?;
        cpu.fset(freg(op.rd), (v >> 32) as u32);
        cpu.fset(freg(op.rd + 1), v as u32);
        v
    } else {
        let v = bus.load32(addr).map_err(map)?;
        cpu.fset(freg(op.rd), v);
        v as u64
    };
    observe_mem::<OBSERVE>(info, addr, v);
    Ok(Flow::Next)
}

fn exec_storef<const DOUBLE: bool, const IMM: bool, const OBSERVE: bool>(
    cpu: &mut Cpu,
    bus: &mut Bus,
    op: &DecodedOp,
    info: &mut ExecInfo,
) -> Result<Flow, ExecError> {
    let addr = cpu.get(reg(op.rs1)).wrapping_add(op2_val::<IMM>(cpu, op));
    let map = |e| ExecError::Trap(fault_to_trap(op.pc, e));
    let v = if DOUBLE {
        let hi = cpu.fget(freg(op.rd)) as u64;
        let lo = cpu.fget(freg(op.rd + 1)) as u64;
        let v = (hi << 32) | lo;
        bus.store64(addr, v).map_err(map)?;
        v
    } else {
        let v = cpu.fget(freg(op.rd));
        bus.store32(addr, v).map_err(map)?;
        v as u64
    };
    observe_mem::<OBSERVE>(info, addr, v);
    Ok(Flow::Next)
}

// ---------------------------------------------------------------------------
// Guard ops (trace side exits)
// ---------------------------------------------------------------------------

/// Index of the current integer condition codes into a guard
/// truth-table mask: `n<<3 | z<<2 | v<<1 | c`.
#[inline(always)]
fn icc_index(cpu: &Cpu) -> u16 {
    ((cpu.icc.n as u16) << 3)
        | ((cpu.icc.z as u16) << 2)
        | ((cpu.icc.v as u16) << 1)
        | (cpu.icc.c as u16)
}

/// Truth table of `cond` over all 16 icc states, bit `i` set iff the
/// branch is taken in state `i` (see [`icc_index`]). Evaluating a
/// guard is then one shift-and-mask instead of the cond match.
pub(crate) fn icc_mask(cond: ICond) -> u16 {
    let mut m = 0u16;
    for i in 0..16u16 {
        if cond.eval(i & 8 != 0, i & 4 != 0, i & 2 != 0, i & 1 != 0) {
            m |= 1 << i;
        }
    }
    m
}

#[inline(always)]
fn fcc_index(cpu: &Cpu) -> u16 {
    match cpu.fcc {
        FccValue::Equal => 0,
        FccValue::Less => 1,
        FccValue::Greater => 2,
        FccValue::Unordered => 3,
    }
}

/// Truth table of `cond` over the 4 fcc relations (see [`fcc_index`]).
pub(crate) fn fcc_mask(cond: FCond) -> u16 {
    let mut m = 0u16;
    for (i, fcc) in [
        FccValue::Equal,
        FccValue::Less,
        FccValue::Greater,
        FccValue::Unordered,
    ]
    .into_iter()
    .enumerate()
    {
        if cond.eval(fcc) {
            m |= 1 << i;
        }
    }
    m
}

/// Guard for a branch the trace predicts **taken**: falls through into
/// the (already inlined) delay slot and target block while the
/// prediction holds, and side-exits with the exact not-taken
/// architectural state otherwise. `op.pc` is the branch's address; the
/// trace is only ever entered from a sequential state, so
/// `npc = pc + 4` at the guard.
#[inline(always)]
fn guard_taken<const ANNUL: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    if (op.mask >> icc_index(cpu)) & 1 != 0 {
        return Ok(Flow::Next);
    }
    not_taken_exit::<ANNUL>(cpu, op)
}

/// Guard for a branch the trace predicts **not taken**: falls through
/// past the (annulled or inlined) delay slot while untaken, and
/// side-exits into the delay-slot-then-target state when taken.
/// `op.imm` holds the branch target.
#[inline(always)]
fn guard_untaken(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    if (op.mask >> icc_index(cpu)) & 1 == 0 {
        return Ok(Flow::Next);
    }
    taken_exit(cpu, op)
}

#[inline(always)]
fn guard_ftaken<const ANNUL: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    if (op.mask >> fcc_index(cpu)) & 1 != 0 {
        return Ok(Flow::Next);
    }
    not_taken_exit::<ANNUL>(cpu, op)
}

#[inline(always)]
fn guard_funtaken(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    if (op.mask >> fcc_index(cpu)) & 1 == 0 {
        return Ok(Flow::Next);
    }
    taken_exit(cpu, op)
}

/// Not-taken side exit from a sequential state `(pc, pc+4)`: an
/// annulling branch skips its delay slot (`pc+8, pc+12`), a
/// non-annulling one executes it (`pc+4, pc+8`). Matches
/// `apply_branch` in `exec.rs`.
#[cold]
fn not_taken_exit<const ANNUL: bool>(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    if ANNUL {
        cpu.pc = op.pc.wrapping_add(8);
        cpu.npc = op.pc.wrapping_add(12);
    } else {
        cpu.pc = op.pc.wrapping_add(4);
        cpu.npc = op.pc.wrapping_add(8);
    }
    Ok(Flow::Exit)
}

/// Taken side exit: a taken conditional branch always executes its
/// delay slot (`pc+4`), then the target (`op.imm`).
#[cold]
fn taken_exit(cpu: &mut Cpu, op: &DecodedOp) -> Result<Flow, ExecError> {
    cpu.pc = op.pc.wrapping_add(4);
    cpu.npc = op.imm;
    Ok(Flow::Exit)
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// `FpOp` variants in declaration order (same convention as
/// [`ALU_OPS`]), so `FpOp::X as u8` stored in `aux` indexes back.
const FP_OPS: [FpOp; 20] = [
    FpOp::FMovS,
    FpOp::FNegS,
    FpOp::FAbsS,
    FpOp::FSqrtS,
    FpOp::FSqrtD,
    FpOp::FAddS,
    FpOp::FAddD,
    FpOp::FSubS,
    FpOp::FSubD,
    FpOp::FMulS,
    FpOp::FMulD,
    FpOp::FDivS,
    FpOp::FDivD,
    FpOp::FsMulD,
    FpOp::FiToS,
    FpOp::FiToD,
    FpOp::FsToI,
    FpOp::FdToI,
    FpOp::FsToD,
    FpOp::FdToS,
];

/// FP arithmetic keyed by the `aux` tag (operand evenness is validated
/// at predecode). With `OBSERVE`, divides and square roots record the
/// bits of their second source operand.
#[inline(always)]
fn exec_fp<const OBSERVE: bool>(cpu: &mut Cpu, op: &DecodedOp, info: &mut ExecInfo) {
    use FpOp::*;
    let (rd, rs1, rs2) = (freg(op.rd), freg(op.rs1), freg(op.rs2));
    match FP_OPS[op.aux as usize] {
        FMovS => cpu.fset(rd, cpu.fget(rs2)),
        FNegS => cpu.fset(rd, cpu.fget(rs2) ^ 0x8000_0000),
        FAbsS => cpu.fset(rd, cpu.fget(rs2) & 0x7fff_ffff),
        FSqrtS => {
            let v = cpu.fget_s(rs2);
            if OBSERVE {
                info.fpu_rs2_bits = Some(v.to_bits() as u64);
            }
            cpu.fset_s(rd, v.sqrt());
        }
        FSqrtD => {
            let v = cpu.fget_d(rs2);
            if OBSERVE {
                info.fpu_rs2_bits = Some(v.to_bits());
            }
            cpu.fset_d(rd, v.sqrt());
        }
        FAddS => cpu.fset_s(rd, cpu.fget_s(rs1) + cpu.fget_s(rs2)),
        FAddD => cpu.fset_d(rd, cpu.fget_d(rs1) + cpu.fget_d(rs2)),
        FSubS => cpu.fset_s(rd, cpu.fget_s(rs1) - cpu.fget_s(rs2)),
        FSubD => cpu.fset_d(rd, cpu.fget_d(rs1) - cpu.fget_d(rs2)),
        FMulS => cpu.fset_s(rd, cpu.fget_s(rs1) * cpu.fget_s(rs2)),
        FMulD => cpu.fset_d(rd, cpu.fget_d(rs1) * cpu.fget_d(rs2)),
        FDivS => {
            let b = cpu.fget_s(rs2);
            if OBSERVE {
                info.fpu_rs2_bits = Some(b.to_bits() as u64);
            }
            cpu.fset_s(rd, cpu.fget_s(rs1) / b);
        }
        FDivD => {
            let b = cpu.fget_d(rs2);
            if OBSERVE {
                info.fpu_rs2_bits = Some(b.to_bits());
            }
            cpu.fset_d(rd, cpu.fget_d(rs1) / b);
        }
        FsMulD => cpu.fset_d(rd, cpu.fget_s(rs1) as f64 * cpu.fget_s(rs2) as f64),
        FiToS => cpu.fset_s(rd, cpu.fget(rs2) as i32 as f32),
        FiToD => cpu.fset_d(rd, cpu.fget(rs2) as i32 as f64),
        FsToI => cpu.fset(rd, cpu.fget_s(rs2) as i32 as u32),
        FdToI => cpu.fset(rd, cpu.fget_d(rs2) as i32 as u32),
        FsToD => cpu.fset_d(rd, cpu.fget_s(rs2) as f64),
        FdToS => cpu.fset_s(rd, cpu.fget_d(rs2) as f32),
    }
}

/// Error for an always-trapping entry (`OpKind::Stub`), selected by
/// `aux`. `aux = 4` marks a block-ending instruction, which must never
/// run from the linear table: its entry (or one
/// `Machine::test_corrupt_dispatch` writes) reports the routing
/// violation as a typed error, which the machine layer surfaces as
/// `SimError::DispatchViolation`.
#[cold]
fn stub_err(op: &DecodedOp) -> ExecError {
    match op.aux {
        0 => Trap::Illegal {
            pc: op.pc,
            word: op.imm,
        }
        .into(),
        1 => Trap::FpDisabled { pc: op.pc }.into(),
        2 => Trap::OddFpPair { pc: op.pc }.into(),
        3 => Trap::OddIntPair { pc: op.pc }.into(),
        _ => ExecError::NotLinear { pc: op.pc },
    }
}

/// Executes one predecoded op: one match on its [`OpKind`] tag, with
/// the shape-specific semantics inlined into each arm. `OBSERVE`
/// selects whether `info` is filled (the step path) or left untouched
/// (the traced hot loops, where its bookkeeping compiles away). `pc`
/// and `npc` are neither read nor written except by a guard's side
/// exit. On a trap nothing has been committed (every executor
/// validates before writing), so the instruction can be re-presented
/// after recovery.
#[inline(always)]
pub(crate) fn exec_op<const OBSERVE: bool>(
    op: &DecodedOp,
    cpu: &mut Cpu,
    bus: &mut Bus,
    info: &mut ExecInfo,
) -> Result<Flow, ExecError> {
    match op.kind {
        OpKind::Nop => {
            if OBSERVE {
                info.result_ones = op.imm.count_ones();
            }
            Ok(Flow::Next)
        }
        OpKind::Sethi => {
            cpu.set(reg(op.rd), op.imm);
            if OBSERVE {
                info.result_ones = op.imm.count_ones();
            }
            Ok(Flow::Next)
        }
        OpKind::AluImm => exec_alu_op::<OBSERVE>(cpu, op, op.imm, info),
        OpKind::AluReg => {
            let b = cpu.get(reg(op.rs2));
            exec_alu_op::<OBSERVE>(cpu, op, b, info)
        }
        OpKind::LoadImm => match op.aux {
            0 => exec_load::<0, false, true, OBSERVE>(cpu, bus, op, info),
            1 => exec_load::<1, false, true, OBSERVE>(cpu, bus, op, info),
            2 => exec_load::<2, false, true, OBSERVE>(cpu, bus, op, info),
            3 => exec_load::<3, false, true, OBSERVE>(cpu, bus, op, info),
            4 => exec_load::<0, true, true, OBSERVE>(cpu, bus, op, info),
            _ => exec_load::<1, true, true, OBSERVE>(cpu, bus, op, info),
        },
        OpKind::LoadReg => match op.aux {
            0 => exec_load::<0, false, false, OBSERVE>(cpu, bus, op, info),
            1 => exec_load::<1, false, false, OBSERVE>(cpu, bus, op, info),
            2 => exec_load::<2, false, false, OBSERVE>(cpu, bus, op, info),
            3 => exec_load::<3, false, false, OBSERVE>(cpu, bus, op, info),
            4 => exec_load::<0, true, false, OBSERVE>(cpu, bus, op, info),
            _ => exec_load::<1, true, false, OBSERVE>(cpu, bus, op, info),
        },
        OpKind::StoreImm => match op.aux {
            0 => exec_store::<0, true, OBSERVE>(cpu, bus, op, info),
            1 => exec_store::<1, true, OBSERVE>(cpu, bus, op, info),
            2 => exec_store::<2, true, OBSERVE>(cpu, bus, op, info),
            _ => exec_store::<3, true, OBSERVE>(cpu, bus, op, info),
        },
        OpKind::StoreReg => match op.aux {
            0 => exec_store::<0, false, OBSERVE>(cpu, bus, op, info),
            1 => exec_store::<1, false, OBSERVE>(cpu, bus, op, info),
            2 => exec_store::<2, false, OBSERVE>(cpu, bus, op, info),
            _ => exec_store::<3, false, OBSERVE>(cpu, bus, op, info),
        },
        OpKind::GuardTaken => guard_taken::<false>(cpu, op),
        OpKind::GuardTakenAnnul => guard_taken::<true>(cpu, op),
        OpKind::GuardUntaken => guard_untaken(cpu, op),
        OpKind::GuardFTaken => guard_ftaken::<false>(cpu, op),
        OpKind::GuardFTakenAnnul => guard_ftaken::<true>(cpu, op),
        OpKind::GuardFUntaken => guard_funtaken(cpu, op),
        OpKind::CallLink => {
            // Writes the return address (the call's own pc) to `%o7`;
            // the target block is inlined after the delay slot.
            cpu.set(nfp_sparc::regs::O7, op.pc);
            Ok(Flow::Next)
        }
        OpKind::RdY => {
            let y = cpu.y;
            cpu.set(reg(op.rd), y);
            if OBSERVE {
                info.result_ones = y.count_ones();
            }
            Ok(Flow::Next)
        }
        OpKind::WrYImm => exec_wry::<true>(cpu, op),
        OpKind::WrYReg => exec_wry::<false>(cpu, op),
        OpKind::SaveImm => exec_save::<true>(cpu, op),
        OpKind::SaveReg => exec_save::<false>(cpu, op),
        OpKind::RestoreImm => exec_restore::<true>(cpu, op),
        OpKind::RestoreReg => exec_restore::<false>(cpu, op),
        OpKind::LoadFImm => match op.aux {
            0 => exec_loadf::<false, true, OBSERVE>(cpu, bus, op, info),
            _ => exec_loadf::<true, true, OBSERVE>(cpu, bus, op, info),
        },
        OpKind::LoadFReg => match op.aux {
            0 => exec_loadf::<false, false, OBSERVE>(cpu, bus, op, info),
            _ => exec_loadf::<true, false, OBSERVE>(cpu, bus, op, info),
        },
        OpKind::StoreFImm => match op.aux {
            0 => exec_storef::<false, true, OBSERVE>(cpu, bus, op, info),
            _ => exec_storef::<true, true, OBSERVE>(cpu, bus, op, info),
        },
        OpKind::StoreFReg => match op.aux {
            0 => exec_storef::<false, false, OBSERVE>(cpu, bus, op, info),
            _ => exec_storef::<true, false, OBSERVE>(cpu, bus, op, info),
        },
        OpKind::Fp => {
            exec_fp::<OBSERVE>(cpu, op, info);
            Ok(Flow::Next)
        }
        OpKind::FCmpS => {
            cpu.fcc = compare(
                cpu.fget_s(freg(op.rs1)) as f64,
                cpu.fget_s(freg(op.rs2)) as f64,
            );
            Ok(Flow::Next)
        }
        OpKind::FCmpD => {
            cpu.fcc = compare(cpu.fget_d(freg(op.rs1)), cpu.fget_d(freg(op.rs2)));
            Ok(Flow::Next)
        }
        OpKind::Stub => Err(stub_err(op)),
    }
}

/// Record slot for the unobserved hot loops: `exec_op::<false>` never
/// touches it, so it compiles away.
const UNOBSERVED: ExecInfo = ExecInfo::new(0, Instr::NOP, Category::Nop);

/// Runs a linear slice of the op table until every op retires or
/// one errors out. Returns the retired-op count and the stopping
/// error, if any. Outlined from the machine run loop for the same
/// register-allocation reason as [`Trace::run`].
#[inline(never)]
pub(crate) fn run_ops(
    ops: &[DecodedOp],
    cpu: &mut Cpu,
    bus: &mut Bus,
) -> (usize, Option<ExecError>) {
    let mut info = UNOBSERVED;
    for (k, op) in ops.iter().enumerate() {
        if let Err(e) = exec_op::<false>(op, cpu, bus, &mut info) {
            return (k, Some(e));
        }
    }
    (ops.len(), None)
}

// ---------------------------------------------------------------------------
// Predecode: instruction -> DecodedOp
// ---------------------------------------------------------------------------

/// True when `op`'s double-precision operands all name even registers
/// (SPARC V8 register pairs; violators become an odd-pair
/// [`OpKind::Stub`], so the check never runs per retirement).
fn fp_even_ok(op: FpOp, rd: FReg, rs1: FReg, rs2: FReg) -> bool {
    use FpOp::*;
    match op {
        FSqrtD => rs2.is_even() && rd.is_even(),
        FAddD | FSubD | FMulD | FDivD => rs1.is_even() && rs2.is_even() && rd.is_even(),
        FsMulD | FiToD | FsToD => rd.is_even(),
        FdToI | FdToS => rs2.is_even(),
        _ => true,
    }
}

/// Splits `op2` into the decoded record; returns true for the
/// immediate form.
fn split_op2(op2: Operand, d: &mut DecodedOp) -> bool {
    match op2 {
        Operand::Reg(r) => {
            d.rs2 = r.num();
            false
        }
        Operand::Imm(v) => {
            d.imm = v as u32;
            true
        }
    }
}

/// `SIZE` code used by the const-generic memory fns and `aux` tags:
/// 0 = byte, 1 = half, 2 = word, 3 = doubleword.
fn size_code(size: MemSize) -> u8 {
    match size {
        MemSize::Byte => 0,
        MemSize::Half => 1,
        MemSize::Word => 2,
        MemSize::Double => 3,
    }
}

/// Predecodes one instruction at `pc` into its op. Shape decisions —
/// operand form, width, signedness, FPU presence, register-pair
/// evenness — are made once here and recorded in `kind` and `aux`.
/// `fpu` is the machine's FPU configuration, fixed for its lifetime.
pub(crate) fn predecode_op(instr: Instr, pc: u32, fpu: bool) -> DecodedOp {
    let mut d = DecodedOp::at(pc, OpKind::Stub);
    d.kind = match instr {
        Instr::Sethi { rd, imm22 } => {
            d.imm = imm22 << 10;
            if rd.is_zero() {
                OpKind::Nop
            } else {
                d.rd = rd.num();
                OpKind::Sethi
            }
        }
        Instr::Alu { op, rd, rs1, op2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            d.aux = op as u8;
            if split_op2(op2, &mut d) {
                OpKind::AluImm
            } else {
                OpKind::AluReg
            }
        }
        Instr::RdY { rd } => {
            d.rd = rd.num();
            OpKind::RdY
        }
        Instr::WrY { rs1, op2 } => {
            d.rs1 = rs1.num();
            if split_op2(op2, &mut d) {
                OpKind::WrYImm
            } else {
                OpKind::WrYReg
            }
        }
        Instr::Save { rd, rs1, op2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            if split_op2(op2, &mut d) {
                OpKind::SaveImm
            } else {
                OpKind::SaveReg
            }
        }
        Instr::Restore { rd, rs1, op2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            if split_op2(op2, &mut d) {
                OpKind::RestoreImm
            } else {
                OpKind::RestoreReg
            }
        }
        Instr::Flush { .. } => OpKind::Nop,
        Instr::Load {
            size,
            signed,
            rd,
            rs1,
            op2,
        } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            let imm = split_op2(op2, &mut d);
            if size == MemSize::Double && rd.num() % 2 != 0 {
                d.aux = 3;
                OpKind::Stub
            } else {
                // Signedness only exists below word width.
                let sgn = signed && matches!(size, MemSize::Byte | MemSize::Half);
                d.aux = size_code(size) | (sgn as u8) << 2;
                if imm {
                    OpKind::LoadImm
                } else {
                    OpKind::LoadReg
                }
            }
        }
        Instr::Store { size, rd, rs1, op2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            let imm = split_op2(op2, &mut d);
            if size == MemSize::Double && rd.num() % 2 != 0 {
                d.aux = 3;
                OpKind::Stub
            } else {
                d.aux = size_code(size);
                if imm {
                    OpKind::StoreImm
                } else {
                    OpKind::StoreReg
                }
            }
        }
        Instr::LoadF {
            double,
            rd,
            rs1,
            op2,
        } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            let imm = split_op2(op2, &mut d);
            if !fpu {
                d.aux = 1;
                OpKind::Stub
            } else if double && !rd.is_even() {
                d.aux = 2;
                OpKind::Stub
            } else {
                d.aux = double as u8;
                if imm {
                    OpKind::LoadFImm
                } else {
                    OpKind::LoadFReg
                }
            }
        }
        Instr::StoreF {
            double,
            rd,
            rs1,
            op2,
        } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            let imm = split_op2(op2, &mut d);
            if !fpu {
                d.aux = 1;
                OpKind::Stub
            } else if double && !rd.is_even() {
                d.aux = 2;
                OpKind::Stub
            } else {
                d.aux = double as u8;
                if imm {
                    OpKind::StoreFImm
                } else {
                    OpKind::StoreFReg
                }
            }
        }
        Instr::FpOp { op, rd, rs1, rs2 } => {
            d.rd = rd.num();
            d.rs1 = rs1.num();
            d.rs2 = rs2.num();
            if !fpu {
                d.aux = 1;
                OpKind::Stub
            } else if !fp_even_ok(op, rd, rs1, rs2) {
                d.aux = 2;
                OpKind::Stub
            } else {
                d.aux = op as u8;
                OpKind::Fp
            }
        }
        Instr::FCmp {
            double, rs1, rs2, ..
        } => {
            d.rs1 = rs1.num();
            d.rs2 = rs2.num();
            if !fpu {
                d.aux = 1;
                OpKind::Stub
            } else if double && (!rs1.is_even() || !rs2.is_even()) {
                d.aux = 2;
                OpKind::Stub
            } else if double {
                OpKind::FCmpD
            } else {
                OpKind::FCmpS
            }
        }
        Instr::Unimp { const22: word } | Instr::Illegal { word } => {
            d.imm = word;
            OpKind::Stub
        }
        // Block enders never execute through the linear table.
        Instr::Branch { .. }
        | Instr::FBranch { .. }
        | Instr::Call { .. }
        | Instr::Jmpl { .. }
        | Instr::Ticc { .. } => return DecodedOp::not_linear(pc),
    };
    d
}

/// The op table of an image: one [`DecodedOp`] per instruction, same
/// indexing as the image (`(pc - base) / 4`).
pub(crate) fn predecode_table(code: &[(Instr, Category)], base: u32, fpu: bool) -> Vec<DecodedOp> {
    code.iter()
        .enumerate()
        .map(|(i, &(instr, _))| predecode_op(instr, base.wrapping_add((i as u32) * 4), fpu))
        .collect()
}

// ---------------------------------------------------------------------------
// Superblock traces
// ---------------------------------------------------------------------------

/// How a trace run ended.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TraceHalt {
    /// Every op retired; the machine commits the whole trace and
    /// continues sequentially at [`Trace::end_pc`].
    Completed,
    /// A guard side-exited after `retired` ops (the guard's branch
    /// itself retired); the guard already wrote the architectural
    /// `pc`/`npc`.
    Exited { retired: usize },
    /// Op `at` faulted without retiring; the machine restores
    /// [`Trace::meta`]`(at)` and settles the error.
    Trapped { at: usize, err: ExecError },
}

/// A superblock: a straight-line op sequence spanning one or more
/// basic blocks chained across predicted branches. Bookkeeping
/// parallels the block cache — per-op architectural state for trap
/// restoration and category prefix sums for one-commit accounting.
#[derive(Debug)]
pub(crate) struct Trace {
    ops: Vec<DecodedOp>,
    /// `meta[k]` = the `(pc, npc)` the stepping path would hold when
    /// about to execute op `k`; restored when op `k` traps.
    meta: Vec<(u32, u32)>,
    /// `prefix[k]` = category counts of `ops[0..k]`.
    prefix: Vec<CategoryCounts>,
    /// Sequential continuation pc after the trace completes.
    end_pc: u32,
}

impl Trace {
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn end_pc(&self) -> u32 {
        self.end_pc
    }

    pub fn meta(&self, k: usize) -> (u32, u32) {
        self.meta[k]
    }

    /// Category counts of the first `k` ops.
    pub fn counts_upto(&self, k: usize) -> CategoryCounts {
        self.prefix[k]
    }

    /// Executes the trace. The caller commits instret/counts/pc/npc
    /// from the returned halt; this loop touches only cpu/bus state.
    ///
    /// Deliberately not inlined: the loop body carries the whole
    /// inline-dispatch match, and folding that into the machine's
    /// (large) run loop measurably degrades its register allocation.
    #[inline(never)]
    pub fn run(&self, cpu: &mut Cpu, bus: &mut Bus) -> TraceHalt {
        let mut info = UNOBSERVED;
        for (k, op) in self.ops.iter().enumerate() {
            match exec_op::<false>(op, cpu, bus, &mut info) {
                Ok(Flow::Next) => {}
                Ok(Flow::Exit) => return TraceHalt::Exited { retired: k + 1 },
                Err(err) => return TraceHalt::Trapped { at: k, err },
            }
        }
        TraceHalt::Completed
    }
}

/// Build outcome for a trace head.
#[derive(Debug)]
pub(crate) enum TraceSlot {
    /// Not yet attempted.
    Untried,
    /// Attempted, but no chaining opportunity was found (single block);
    /// the flat table ([`run_ops`]) is already optimal there.
    Absent,
    /// A formed superblock.
    Present(Box<Trace>),
}

/// Per-image trace table: lazily built superblocks keyed by block
/// leader index. Only leaders ([`leaders`]) become trace heads — which
/// is what makes the `t<cond>` fall-through leader fix load-bearing:
/// a missed leader is a never-traced block.
#[derive(Debug)]
pub(crate) struct TraceCache {
    slots: Vec<TraceSlot>,
    head: Vec<bool>,
}

impl TraceCache {
    pub fn new(code: &[(Instr, Category)], base: u32) -> Self {
        let mut head = vec![false; code.len()];
        for i in leaders(code, base) {
            head[i] = true;
        }
        let slots = (0..code.len()).map(|_| TraceSlot::Untried).collect();
        TraceCache { slots, head }
    }

    #[inline]
    pub fn is_head(&self, i: usize) -> bool {
        self.head[i]
    }

    #[inline]
    pub fn slot(&self, i: usize) -> &TraceSlot {
        &self.slots[i]
    }

    #[inline]
    pub fn is_untried(&self, i: usize) -> bool {
        matches!(self.slots[i], TraceSlot::Untried)
    }

    pub fn set(&mut self, i: usize, slot: TraceSlot) {
        self.slots[i] = slot;
    }
}

/// Forms a superblock starting at block leader `start`.
///
/// The trace inlines straight-line runs from the block cache and
/// chains across control transfers while the transfer is statically
/// predictable:
///
/// - `ba`/`fba` (annulled or not) and `call` chain unconditionally;
/// - conditional branches follow BTFN (backward target predicted
///   taken, forward predicted not taken), enforced by a guard op that
///   side-exits with exact architectural state when the prediction
///   fails;
/// - `jmpl` (dynamic target) and `t<cond>` (software trap) end the
///   trace.
///
/// A taken chain requires the delay slot to be a linear in-image
/// instruction and the target to be in-image; an annulled delay slot
/// is simply not emitted (it never retires, exactly like stepping).
/// Formation stops at loop closure (re-visiting a block already in the
/// trace — this is what turns one FSE inner-loop iteration into one
/// trace) or at [`MAX_TRACE_OPS`].
pub(crate) fn build_trace(
    code: &[(Instr, Category)],
    base: u32,
    blocks: &BlockCache,
    table: &[DecodedOp],
    fpu: bool,
    start: usize,
) -> TraceSlot {
    let n = code.len();
    let pc_of = |i: usize| base.wrapping_add((i as u32) * 4);
    let mut ops: Vec<DecodedOp> = Vec::new();
    let mut meta: Vec<(u32, u32)> = Vec::new();
    let mut cats: Vec<Category> = Vec::new();
    let mut chained = 0usize;
    let mut visited: HashSet<usize> = HashSet::new();
    visited.insert(start);
    let mut cur = start;
    let end_pc;
    'build: loop {
        let run_end = blocks.run_end(cur);
        for i in cur..run_end {
            if ops.len() >= MAX_TRACE_OPS {
                end_pc = pc_of(i);
                break 'build;
            }
            ops.push(table[i]);
            meta.push((pc_of(i), pc_of(i).wrapping_add(4)));
            cats.push(code[i].1);
        }
        if run_end >= n {
            // Ran off the image end; continuation is sequential.
            end_pc = pc_of(run_end);
            break;
        }
        let e = run_end;
        let epc = pc_of(e);
        if ops.len() + 2 > MAX_TRACE_OPS {
            end_pc = epc;
            break;
        }
        let ecat = code[e].1;
        // A taken chain inlines the delay slot, which must exist and
        // be linear (a CTI in a delay slot is left to the step path).
        let delay_ok = e + 1 < n && !code[e + 1].0.ends_block();
        let mut push = |op: DecodedOp, m: (u32, u32), c: Category| {
            ops.push(op);
            meta.push(m);
            cats.push(c);
        };
        let next = match code[e].0 {
            Instr::Branch {
                cond,
                annul,
                disp22,
            } => {
                let target = epc.wrapping_add((disp22 as u32).wrapping_mul(4));
                let t = target.wrapping_sub(base) as usize / 4;
                let t_ok = target.is_multiple_of(4) && target >= base && t < n;
                if cond == ICond::A {
                    if !t_ok || (!annul && !delay_ok) {
                        end_pc = epc;
                        break;
                    }
                    // The transfer is unconditional and the successor
                    // blocks are inlined, so retiring it is a no-op.
                    push(
                        DecodedOp::at(epc, OpKind::Nop),
                        (epc, epc.wrapping_add(4)),
                        ecat,
                    );
                    if !annul {
                        // `ba` executes its delay slot; `ba,a` annuls
                        // it (never retires, so never emitted).
                        push(table[e + 1], (pc_of(e + 1), target), code[e + 1].1);
                    }
                    chained += 1;
                    t
                } else if cond != ICond::N && target <= epc {
                    // Backward conditional: predict taken (BTFN).
                    if !t_ok || !delay_ok {
                        end_pc = epc;
                        break;
                    }
                    let kind = if annul {
                        OpKind::GuardTakenAnnul
                    } else {
                        OpKind::GuardTaken
                    };
                    let mut gop = DecodedOp::at(epc, kind);
                    gop.mask = icc_mask(cond);
                    push(gop, (epc, epc.wrapping_add(4)), ecat);
                    push(table[e + 1], (pc_of(e + 1), target), code[e + 1].1);
                    chained += 1;
                    t
                } else {
                    // Forward (or never-taken) conditional: predict not
                    // taken. The guard's taken-exit only writes
                    // pc/npc, so an out-of-image target is fine.
                    if !annul && !delay_ok {
                        end_pc = epc;
                        break;
                    }
                    let mut gop = DecodedOp::at(epc, OpKind::GuardUntaken);
                    gop.mask = icc_mask(cond);
                    gop.imm = target;
                    push(gop, (epc, epc.wrapping_add(4)), ecat);
                    if !annul {
                        // Untaken non-annulling branch still executes
                        // its delay slot.
                        push(table[e + 1], (pc_of(e + 1), pc_of(e + 2)), code[e + 1].1);
                    }
                    chained += 1;
                    e + 2
                }
            }
            Instr::FBranch {
                cond,
                annul,
                disp22,
            } if fpu => {
                let target = epc.wrapping_add((disp22 as u32).wrapping_mul(4));
                let t = target.wrapping_sub(base) as usize / 4;
                let t_ok = target.is_multiple_of(4) && target >= base && t < n;
                if cond == FCond::A {
                    if !t_ok || (!annul && !delay_ok) {
                        end_pc = epc;
                        break;
                    }
                    // The transfer is unconditional and the successor
                    // blocks are inlined, so retiring it is a no-op.
                    push(
                        DecodedOp::at(epc, OpKind::Nop),
                        (epc, epc.wrapping_add(4)),
                        ecat,
                    );
                    if !annul {
                        push(table[e + 1], (pc_of(e + 1), target), code[e + 1].1);
                    }
                    chained += 1;
                    t
                } else if cond != FCond::N && target <= epc {
                    if !t_ok || !delay_ok {
                        end_pc = epc;
                        break;
                    }
                    let kind = if annul {
                        OpKind::GuardFTakenAnnul
                    } else {
                        OpKind::GuardFTaken
                    };
                    let mut gop = DecodedOp::at(epc, kind);
                    gop.mask = fcc_mask(cond);
                    push(gop, (epc, epc.wrapping_add(4)), ecat);
                    push(table[e + 1], (pc_of(e + 1), target), code[e + 1].1);
                    chained += 1;
                    t
                } else {
                    if !annul && !delay_ok {
                        end_pc = epc;
                        break;
                    }
                    let mut gop = DecodedOp::at(epc, OpKind::GuardFUntaken);
                    gop.mask = fcc_mask(cond);
                    gop.imm = target;
                    push(gop, (epc, epc.wrapping_add(4)), ecat);
                    if !annul {
                        push(table[e + 1], (pc_of(e + 1), pc_of(e + 2)), code[e + 1].1);
                    }
                    chained += 1;
                    e + 2
                }
            }
            Instr::Call { disp30 } => {
                let target = epc.wrapping_add((disp30 as u32).wrapping_mul(4));
                let t = target.wrapping_sub(base) as usize / 4;
                let t_ok = target.is_multiple_of(4) && target >= base && t < n;
                if !t_ok || !delay_ok {
                    end_pc = epc;
                    break;
                }
                push(
                    DecodedOp::at(epc, OpKind::CallLink),
                    (epc, epc.wrapping_add(4)),
                    ecat,
                );
                push(table[e + 1], (pc_of(e + 1), target), code[e + 1].1);
                chained += 1;
                t
            }
            // Dynamic targets (`jmpl`), software traps (`t<cond>`),
            // and FPU branches on a no-FPU machine (which trap): the
            // trace ends at the block boundary.
            _ => {
                end_pc = epc;
                break;
            }
        };
        if next >= n || visited.contains(&next) {
            // Off-image continuation or loop closure: the trace ends
            // in a sequential state at the next block's entry.
            end_pc = pc_of(next);
            break;
        }
        visited.insert(next);
        cur = next;
    }
    if chained == 0 {
        return TraceSlot::Absent;
    }
    let mut prefix = Vec::with_capacity(ops.len() + 1);
    let mut acc = CategoryCounts::new();
    prefix.push(acc);
    for &c in &cats {
        acc.bump(c);
        prefix.push(acc);
    }
    TraceSlot::Present(Box::new(Trace {
        ops,
        meta,
        prefix,
        end_pc,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfp_sparc::asm::Assembler;
    use nfp_sparc::{decode, AluOp};

    fn predecode(words: &[u32]) -> Vec<(Instr, Category)> {
        words
            .iter()
            .map(|&w| {
                let i = decode(w);
                (i, i.category())
            })
            .collect()
    }

    #[test]
    fn icc_masks_match_cond_eval() {
        for bits in 0..16u8 {
            let cond = ICond::from_bits(bits);
            let mask = icc_mask(cond);
            for i in 0..16u16 {
                let want = cond.eval(i & 8 != 0, i & 4 != 0, i & 2 != 0, i & 1 != 0);
                assert_eq!((mask >> i) & 1 != 0, want, "{cond:?} state {i}");
            }
        }
        assert_eq!(icc_mask(ICond::A), 0xffff);
        assert_eq!(icc_mask(ICond::N), 0);
    }

    #[test]
    fn fcc_masks_match_cond_eval() {
        let fccs = [
            FccValue::Equal,
            FccValue::Less,
            FccValue::Greater,
            FccValue::Unordered,
        ];
        for bits in 0..16u8 {
            let cond = FCond::from_bits(bits);
            let mask = fcc_mask(cond);
            for (i, &fcc) in fccs.iter().enumerate() {
                assert_eq!((mask >> i) & 1 != 0, cond.eval(fcc), "{cond:?} {fcc:?}");
            }
        }
    }

    #[test]
    fn backward_loop_forms_a_single_trace_per_iteration() {
        // mov 10, %l0; loop: subcc; bne loop; nop (delay); mov; ta 0
        let mut a = Assembler::new(0x4000_0000);
        a.mov(10, nfp_sparc::Reg::l(0));
        a.label("loop");
        a.alu(AluOp::SubCc, nfp_sparc::Reg::l(0), 1, nfp_sparc::Reg::l(0));
        a.b(ICond::Ne, "loop");
        a.nop();
        a.mov(0, nfp_sparc::Reg::o(0));
        a.ta(0);
        let code = predecode(&a.finish().unwrap());
        let blocks = BlockCache::build(&code);
        let table = predecode_table(&code, 0x4000_0000, true);
        // Head at the loop body (index 1, the backward target).
        let slot = build_trace(&code, 0x4000_0000, &blocks, &table, true, 1);
        let TraceSlot::Present(trace) = slot else {
            panic!("backward loop must form a trace, got {slot:?}");
        };
        // subcc, guard(bne), delay nop — one full loop iteration.
        assert_eq!(trace.len(), 3);
        // Loop closure: continuation is the loop head itself.
        assert_eq!(trace.end_pc(), 0x4000_0004);
        // Guard meta points at the branch with sequential npc.
        assert_eq!(trace.meta(1), (0x4000_0008, 0x4000_000c));
        // Delay-slot meta carries the taken-branch npc (the target).
        assert_eq!(trace.meta(2), (0x4000_000c, 0x4000_0004));
    }

    #[test]
    fn straight_line_block_yields_no_trace() {
        let mut a = Assembler::new(0x4000_0000);
        a.mov(1, nfp_sparc::Reg::o(0));
        a.ta(0);
        let code = predecode(&a.finish().unwrap());
        let blocks = BlockCache::build(&code);
        let table = predecode_table(&code, 0x4000_0000, true);
        let slot = build_trace(&code, 0x4000_0000, &blocks, &table, true, 0);
        assert!(matches!(slot, TraceSlot::Absent), "got {slot:?}");
    }

    #[test]
    fn trace_formation_terminates_on_self_loop_and_caps() {
        // ba,a . — an annulled self-loop: one retire op, closed at once.
        let mut a = Assembler::new(0x4000_0000);
        a.label("spin");
        a.b_a(ICond::A, "spin");
        let code = predecode(&a.finish().unwrap());
        let blocks = BlockCache::build(&code);
        let table = predecode_table(&code, 0x4000_0000, true);
        let slot = build_trace(&code, 0x4000_0000, &blocks, &table, true, 0);
        let TraceSlot::Present(trace) = slot else {
            panic!("self-loop must form a trace");
        };
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.end_pc(), 0x4000_0000);
        assert!(trace.len() <= MAX_TRACE_OPS);
    }
}
