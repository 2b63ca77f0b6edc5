//! The statevector kernel engine: specialized in-place update rules for
//! every gate, blocked loops instead of per-index branch tests, scoped
//! multi-threading, and fusion of diagonal-gate runs into a single
//! parity-counting pass.
//!
//! # Dispatch
//!
//! [`Op::from_instruction`] lowers an instruction to the cheapest exact
//! update rule, extending [`qcircuit::kernel::Kernel`] with the structured
//! real-rotation mixers (`H`, `RX`, `RY`) that the generic `Dense1` matrix
//! product would otherwise handle with twice the flops:
//!
//! | gates                     | rule                                       |
//! |---------------------------|--------------------------------------------|
//! | `Z S T RZ U1`             | per-amplitude phase multiply               |
//! | `CZ CPHASE RZZ`           | per-amplitude phase multiply (2q key)      |
//! | `X Y`                     | pair swap with phases                      |
//! | `CNOT`, lone `SWAP`       | index-pair swap, no arithmetic             |
//! | `H`                       | `s·(a0±a1)` butterfly                      |
//! | `RX RY`                   | real 2×2 rotation (4 real mul/entry)       |
//! | `U2 U3` (and unknowns)    | generic `Matrix2`/`Matrix4` product        |
//!
//! A whole circuit's `SWAP`s never reach this table:
//! [`crate::StateVector::from_circuit_with`] absorbs them as qubit
//! relabels and remaps the other gates' operands onto the compact bits of
//! the qubits that hold data. Only single-gate application and the
//! streaming trajectory simulator dispatch them.
//!
//! # Threading
//!
//! All kernels couple an amplitude only to partners inside an aligned
//! block of `2^(max_operand_bit + 1)` indices, so [`par::chunked`] splits
//! the buffer on those boundaries and each scoped thread works
//! independently. A single-qubit gate on the register's *top* qubit is the
//! one shape that alignment cannot split; it goes through [`par::zipped`]
//! on the two register halves instead. Two-qubit gates touching the top
//! qubit fall back to serial (their share of runtime is negligible: at
//! most one qubit per circuit is affected). Every rule reads only
//! pre-update values of its own block, so results are bit-for-bit
//! identical for every thread count.
//!
//! # Diagonal fusion
//!
//! A run of consecutive diagonal gates multiplies each amplitude by a
//! product of phases that depends only on the basis index — so the run
//! collapses into *one* pass over the buffer. [`DiagAccumulator`] merges
//! repeated gates on the same operands algebraically, then classifies the
//! remaining two-qubit terms:
//!
//! * **parity class** (`RZZ`: `phases = [same, diff, diff, same]`) — the
//!   phase depends only on the parity of the two operand bits. A group of
//!   `k` such terms sharing one `(same, diff)` pair (a whole QAOA cost
//!   layer, since every edge uses the same γ) needs just `c` = number of
//!   odd-parity pairs, and the phase is `same^(k-c)·diff^c` — precomputed
//!   in a `k+1`-entry table. When the run is exactly one such group, `c`
//!   comes by *row sums* ([`ParityRows`]): split the index into a row
//!   (high bits) and a column (low `⌈n/2⌉` bits); the column's own pairs
//!   are a table lookup, the row's own pairs a per-row constant, and each
//!   cross pair is linear in its column bit once the row is fixed, so a
//!   row's counts build by doubling with one add per entry. No popcount
//!   and no loop-carried count per amplitude, whatever `k` is. Otherwise
//!   `c` is recomputed per amplitude (`k` popcounts).
//! * **both-set class** (`CZ`/`CPHASE`: `phases = [1, 1, 1, p]`) — same
//!   trick with `c` = number of pairs with both bits set.
//! * anything else falls back to a 4-entry key lookup per term.
//!
//! # Wall fusion
//!
//! A run of consecutive single-qubit gates (the `H` and `RX` walls of
//! QAOA) is collected by [`WallAccumulator`] and applied
//! low-qubits-first: all gates whose pair stride fits in a cache-sized
//! block are applied back-to-back on each block while it is resident, so
//! the whole low-qubit portion of the wall costs one memory sweep.
//! Distinct-qubit gates commute exactly, and each amplitude still passes
//! through the same per-gate update rules, so results match gate-by-gate
//! application to rounding (and are bit-for-bit identical across thread
//! counts).
//!
//! A fresh-state run's *leading* wall never reaches this accumulator: on
//! `|0…0⟩` it makes a product state, which [`ProductState`] writes in one
//! doubling pass.

use crate::par;
use crate::SimOptions;
use qcircuit::kernel::Kernel;
use qcircuit::math::{matmul2, Complex, Matrix2, Matrix4, ONE, ZERO};
use qcircuit::{Gate, Instruction};

/// Streaming instruction applier that fuses runs of diagonal gates across
/// `apply` calls. The engine behind [`crate::StateVector::from_circuit_with`]
/// and the trajectory simulator: callers stream instructions through
/// [`FusedApplier::apply`] and must [`FusedApplier::flush`] before reading
/// the amplitudes (or interleaving out-of-band updates such as Pauli
/// injections).
pub(crate) struct FusedApplier {
    acc: DiagAccumulator,
    wall: WallAccumulator,
    threads: usize,
}

impl FusedApplier {
    pub(crate) fn new(opts: &SimOptions, num_qubits: usize) -> Self {
        FusedApplier {
            acc: DiagAccumulator::default(),
            wall: WallAccumulator::default(),
            threads: opts.effective_threads(num_qubits),
        }
    }

    pub(crate) fn apply(&mut self, amps: &mut [Complex], instr: &Instruction) {
        let op = Op::from_instruction(instr);
        if qtrace::enabled() {
            let q = qtrace::global();
            q.add(op.dispatch_counter(), 1);
            // Timeline marker per kernel dispatch (second opt-in: only
            // recorded when event capture is also on).
            q.instant(op.dispatch_counter());
        }
        // At most one accumulator holds gates at any time, so flushing
        // one before feeding the other preserves program order. A 1q
        // diagonal gate joins whichever run is open (it fits both).
        match op {
            Op::Identity => {}
            Op::Phase1 { .. } if !self.wall.is_empty() => self.wall.push(op),
            Op::Phase1 { .. } | Op::Phase2 { .. } => {
                self.wall.flush(amps, self.threads);
                self.acc.push(&op);
            }
            Op::Flip1 { .. }
            | Op::Hadamard { .. }
            | Op::RotX { .. }
            | Op::RotY { .. }
            | Op::Dense1 { .. } => {
                self.acc.flush(amps, self.threads);
                self.wall.push(op);
            }
            _ => {
                self.acc.flush(amps, self.threads);
                self.wall.flush(amps, self.threads);
                op.apply(amps, self.threads);
            }
        }
    }

    pub(crate) fn flush(&mut self, amps: &mut [Complex]) {
        self.acc.flush(amps, self.threads);
        self.wall.flush(amps, self.threads);
    }
}

/// A lowered instruction: the update rule plus its operand bit masks.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// No-op.
    Identity,
    /// `diag(z0, z1)` on one qubit.
    Phase1 {
        bit: usize,
        z0: Complex,
        z1: Complex,
    },
    /// Two-qubit diagonal; `phases` indexed by `(bit_a << 1) | bit_b`.
    Phase2 {
        ba: usize,
        bb: usize,
        phases: [Complex; 4],
    },
    /// Anti-diagonal pair swap: `a0' = z0·a1`, `a1' = z1·a0` (X, Y).
    Flip1 {
        bit: usize,
        z0: Complex,
        z1: Complex,
    },
    /// CNOT: swap the target pair where the control bit is set.
    Cnot { control: usize, target: usize },
    /// SWAP: exchange the operand bits of every index.
    Swap { ba: usize, bb: usize },
    /// Hadamard butterfly `s·(a0 + a1), s·(a0 - a1)`.
    Hadamard { bit: usize },
    /// `RX(θ)`: `[[c, -is], [-is, c]]` with `c = cos θ/2`, `s = sin θ/2`.
    RotX { bit: usize, c: f64, s: f64 },
    /// `RY(θ)`: real rotation `[[c, -s], [s, c]]`.
    RotY { bit: usize, c: f64, s: f64 },
    /// Generic dense 2×2.
    Dense1 { bit: usize, m: Matrix2 },
    /// Generic dense 4×4; row/col index is `(bit_a << 1) | bit_b`.
    Dense2 { ba: usize, bb: usize, m: Matrix4 },
}

impl Op {
    /// Lowers a unitary instruction to its update rule.
    ///
    /// # Panics
    ///
    /// Panics on measurement instructions — callers filter them first.
    pub(crate) fn from_instruction(instr: &Instruction) -> Op {
        let b0 = || 1usize << instr.q0();
        let b1 = || 1usize << instr.q1();
        match instr.gate() {
            // Structured dense gates the Kernel classification keeps as
            // Dense1: lower them to cheaper real-arithmetic rules here.
            Gate::H => Op::Hadamard { bit: b0() },
            Gate::Rx(t) => {
                let t = t.value();
                Op::RotX {
                    bit: b0(),
                    c: (t / 2.0).cos(),
                    s: (t / 2.0).sin(),
                }
            }
            Gate::Ry(t) => {
                let t = t.value();
                Op::RotY {
                    bit: b0(),
                    c: (t / 2.0).cos(),
                    s: (t / 2.0).sin(),
                }
            }
            g => match g.kernel() {
                Kernel::Identity => Op::Identity,
                Kernel::Phase1 { z0, z1 } => Op::Phase1 { bit: b0(), z0, z1 },
                Kernel::Flip1 { z0, z1 } => Op::Flip1 { bit: b0(), z0, z1 },
                Kernel::Phase2 { phases } => Op::Phase2 {
                    ba: b0(),
                    bb: b1(),
                    phases,
                },
                Kernel::ControlledFlip => Op::Cnot {
                    control: b0(),
                    target: b1(),
                },
                Kernel::Swap => Op::Swap { ba: b0(), bb: b1() },
                Kernel::Dense1(m) => Op::Dense1 { bit: b0(), m },
                Kernel::Dense2(m) => Op::Dense2 {
                    ba: b0(),
                    bb: b1(),
                    m,
                },
                Kernel::Measure => panic!("cannot lower a measurement to a unitary kernel"),
            },
        }
    }

    /// The manifest counter this op's dispatches accumulate under, one
    /// per update rule — the "kernel dispatch counts" section of the run
    /// manifest.
    pub(crate) fn dispatch_counter(&self) -> &'static str {
        match self {
            Op::Identity => "qsim/dispatch/identity",
            Op::Phase1 { .. } => "qsim/dispatch/phase1",
            Op::Phase2 { .. } => "qsim/dispatch/phase2",
            Op::Flip1 { .. } => "qsim/dispatch/flip1",
            Op::Cnot { .. } => "qsim/dispatch/cnot",
            Op::Swap { .. } => "qsim/dispatch/swap",
            Op::Hadamard { .. } => "qsim/dispatch/hadamard",
            Op::RotX { .. } => "qsim/dispatch/rotx",
            Op::RotY { .. } => "qsim/dispatch/roty",
            Op::Dense1 { .. } => "qsim/dispatch/dense1",
            Op::Dense2 { .. } => "qsim/dispatch/dense2",
        }
    }

    /// The operand bit mask of a single-qubit op, `None` otherwise.
    fn operand_bit(&self) -> Option<usize> {
        match *self {
            Op::Phase1 { bit, .. }
            | Op::Flip1 { bit, .. }
            | Op::Hadamard { bit }
            | Op::RotX { bit, .. }
            | Op::RotY { bit, .. }
            | Op::Dense1 { bit, .. } => Some(bit),
            _ => None,
        }
    }

    /// The 2×2 matrix of a single-qubit op (used only to compose repeated
    /// gates on one qubit inside a wall).
    ///
    /// # Panics
    ///
    /// Panics on multi-qubit ops.
    fn to_matrix2(&self) -> Matrix2 {
        let r = |x: f64| Complex::new(x, 0.0);
        match *self {
            Op::Phase1 { z0, z1, .. } => [[z0, ZERO], [ZERO, z1]],
            Op::Flip1 { z0, z1, .. } => [[ZERO, z0], [z1, ZERO]],
            Op::Hadamard { .. } => {
                let s = r(std::f64::consts::FRAC_1_SQRT_2);
                [[s, s], [s, -s]]
            }
            Op::RotX { c, s, .. } => {
                let is = Complex::new(0.0, -s);
                [[r(c), is], [is, r(c)]]
            }
            Op::RotY { c, s, .. } => [[r(c), r(-s)], [r(s), r(c)]],
            Op::Dense1 { m, .. } => m,
            _ => panic!("not a single-qubit op"),
        }
    }

    /// Applies the op in place over `threads` workers.
    pub(crate) fn apply(&self, amps: &mut [Complex], threads: usize) {
        if !matches!(self, Op::Identity) {
            count_updates(1, amps.len());
        }
        self.update(amps, threads);
    }

    /// [`Op::apply`] without the work counter, for callers that count a
    /// whole fused run at once.
    fn update(&self, amps: &mut [Complex], threads: usize) {
        match *self {
            Op::Identity => {}
            Op::Phase1 { bit, z0, z1 } => phase1(amps, bit, z0, z1, threads),
            Op::Phase2 { ba, bb, phases } => phase2(amps, ba, bb, &phases, threads),
            Op::Flip1 { bit, z0, z1 } => {
                pairwise(amps, bit, threads, move |a0, a1| (z0 * a1, z1 * a0))
            }
            Op::Cnot { control, target } => cnot(amps, control, target, threads),
            Op::Swap { ba, bb } => swap(amps, ba, bb, threads),
            Op::Hadamard { bit } => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                pairwise(amps, bit, threads, move |a0, a1| {
                    ((a0 + a1).scale(s), (a0 - a1).scale(s))
                });
            }
            Op::RotX { bit, c, s } => pairwise(amps, bit, threads, move |a0, a1| {
                (
                    Complex::new(c * a0.re + s * a1.im, c * a0.im - s * a1.re),
                    Complex::new(s * a0.im + c * a1.re, -s * a0.re + c * a1.im),
                )
            }),
            Op::RotY { bit, c, s } => pairwise(amps, bit, threads, move |a0, a1| {
                (
                    Complex::new(c * a0.re - s * a1.re, c * a0.im - s * a1.im),
                    Complex::new(s * a0.re + c * a1.re, s * a0.im + c * a1.im),
                )
            }),
            Op::Dense1 { bit, m } => pairwise(amps, bit, threads, move |a0, a1| {
                (m[0][0] * a0 + m[0][1] * a1, m[1][0] * a0 + m[1][1] * a1)
            }),
            Op::Dense2 { ba, bb, m } => dense2(amps, ba, bb, &m, threads),
        }
    }
}

/// Adds the work of `gates` update rules applied across a `len`-amplitude
/// buffer to the `qsim/amplitude_updates` counter. It counts per kernel
/// application, outside any thread split, so it reads the same for every
/// thread count.
fn count_updates(gates: usize, len: usize) {
    if qtrace::enabled() {
        qtrace::global().add("qsim/amplitude_updates", (gates * len) as u64);
    }
}

/// Runs `update(a0, a1)` over every amplitude pair split by `bit`, blocked
/// so the inner loops are branch-free. The top-qubit case (where a block
/// would cover the whole buffer) splits the register in half and zips.
fn pairwise<F>(amps: &mut [Complex], bit: usize, threads: usize, update: F)
where
    F: Fn(Complex, Complex) -> (Complex, Complex) + Sync,
{
    debug_assert!(2 * bit <= amps.len());
    if 2 * bit == amps.len() {
        let (lo, hi) = amps.split_at_mut(bit);
        par::zipped(lo, hi, threads, |_, ls, hs| {
            for (l, h) in ls.iter_mut().zip(hs.iter_mut()) {
                let (n0, n1) = update(*l, *h);
                *l = n0;
                *h = n1;
            }
        });
        return;
    }
    par::chunked(amps, 2 * bit, threads, |_, chunk| {
        for block in chunk.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                let (n0, n1) = update(*l, *h);
                *l = n0;
                *h = n1;
            }
        }
    });
}

fn phase1(amps: &mut [Complex], bit: usize, z0: Complex, z1: Complex, threads: usize) {
    debug_assert!(2 * bit <= amps.len());
    if 2 * bit == amps.len() {
        let (lo, hi) = amps.split_at_mut(bit);
        par::zipped(lo, hi, threads, |_, ls, hs| {
            for a in ls.iter_mut() {
                *a *= z0;
            }
            for a in hs.iter_mut() {
                *a *= z1;
            }
        });
        return;
    }
    par::chunked(amps, 2 * bit, threads, |_, chunk| {
        for block in chunk.chunks_exact_mut(2 * bit) {
            let (lo, hi) = block.split_at_mut(bit);
            for a in lo.iter_mut() {
                *a *= z0;
            }
            for a in hi.iter_mut() {
                *a *= z1;
            }
        }
    });
}

fn phase2(amps: &mut [Complex], ba: usize, bb: usize, phases: &[Complex; 4], threads: usize) {
    let align = 2 * ba.max(bb);
    // Chunk offsets are multiples of `align` > ba, bb, so local indices
    // carry the operand bits.
    par::chunked(amps, align, threads, |_, chunk| {
        for (i, a) in chunk.iter_mut().enumerate() {
            let key = (usize::from(i & ba != 0) << 1) | usize::from(i & bb != 0);
            *a *= phases[key];
        }
    });
}

/// Visits every base index of `chunk` with both operand bits clear,
/// calling `f(chunk, base)`. `bl < bh` are the operand bit masks.
fn for_each_2q_base<F: FnMut(&mut [Complex], usize)>(
    chunk: &mut [Complex],
    bl: usize,
    bh: usize,
    mut f: F,
) {
    let len = chunk.len();
    let mut hi = 0;
    while hi < len {
        let mut mid = hi;
        let hi_end = hi + bh;
        while mid < hi_end {
            for base in mid..mid + bl {
                f(chunk, base);
            }
            mid += 2 * bl;
        }
        hi += 2 * bh;
    }
}

fn cnot(amps: &mut [Complex], control: usize, target: usize, threads: usize) {
    let (bl, bh) = (control.min(target), control.max(target));
    par::chunked(amps, 2 * bh, threads, |_, chunk| {
        for_each_2q_base(chunk, bl, bh, |c, base| {
            c.swap(base | control, base | control | target);
        });
    });
}

fn swap(amps: &mut [Complex], ba: usize, bb: usize, threads: usize) {
    let (bl, bh) = (ba.min(bb), ba.max(bb));
    par::chunked(amps, 2 * bh, threads, |_, chunk| {
        for_each_2q_base(chunk, bl, bh, |c, base| {
            c.swap(base | bl, base | bh);
        });
    });
}

fn dense2(amps: &mut [Complex], ba: usize, bb: usize, m: &Matrix4, threads: usize) {
    let (bl, bh) = (ba.min(bb), ba.max(bb));
    par::chunked(amps, 2 * bh, threads, |_, chunk| {
        for_each_2q_base(chunk, bl, bh, |c, base| {
            let idx = [base, base | bb, base | ba, base | ba | bb];
            let olds = [c[idx[0]], c[idx[1]], c[idx[2]], c[idx[3]]];
            for (r, &i) in idx.iter().enumerate() {
                let mut acc = ZERO;
                for (col, &old) in olds.iter().enumerate() {
                    acc += m[r][col] * old;
                }
                c[i] = acc;
            }
        });
    });
}

/// Block size (in amplitudes) for cache-resident wall application:
/// `2^14` amplitudes = 256 KiB, sized to sit in L2.
const WALL_BLOCK: usize = 1 << 14;

/// Fused run of consecutive single-qubit gates (a "wall": the `H` and
/// `RX(2β)` layers of QAOA). Gates on distinct qubits commute, so the run
/// is reordered low-qubits-first and every gate whose pair stride fits in
/// [`WALL_BLOCK`] is applied block-by-block while the block is
/// cache-resident — one memory sweep applies the whole low-qubit portion
/// of the wall instead of one sweep per gate. Repeated gates on one qubit
/// compose into a single dense 2×2 first.
#[derive(Debug, Default)]
struct WallAccumulator {
    /// Accumulated single-qubit ops, at most one per qubit.
    ops: Vec<Op>,
}

impl WallAccumulator {
    fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Merges a single-qubit op into the wall.
    ///
    /// # Panics
    ///
    /// Panics if the op is not single-qubit (callers dispatch on shape).
    fn push(&mut self, op: Op) {
        let bit = op.operand_bit().expect("wall ops are single-qubit");
        if let Some(e) = self.ops.iter_mut().find(|e| e.operand_bit() == Some(bit)) {
            *e = Op::Dense1 {
                bit,
                m: matmul2(&op.to_matrix2(), &e.to_matrix2()),
            };
        } else {
            self.ops.push(op);
        }
    }

    /// Applies the accumulated wall and clears it. No-op when empty.
    fn flush(&mut self, amps: &mut [Complex], threads: usize) {
        if self.ops.is_empty() {
            return;
        }
        if qtrace::enabled() {
            qtrace::global().observe("qsim/fused_wall_run_len", self.ops.len() as u64);
        }
        let block = WALL_BLOCK.min(amps.len());
        let is_low = |op: &Op| 2 * op.operand_bit().expect("wall ops are single-qubit") <= block;
        let n_low = self.ops.iter().filter(|op| is_low(op)).count();
        if n_low > 1 {
            // `amps.len()` is a power of two ≥ `block`, so blocks tile the
            // buffer exactly; each low op's coupled pairs stay inside a
            // block, so per-block serial application is exact.
            count_updates(n_low, amps.len());
            let ops = &self.ops;
            par::chunked(amps, block, threads, |_, chunk| {
                for blk in chunk.chunks_exact_mut(block) {
                    for op in ops.iter().filter(|op| is_low(op)) {
                        op.update(blk, 1);
                    }
                }
            });
        } else {
            for op in self.ops.iter().filter(|op| is_low(op)) {
                op.apply(amps, threads);
            }
        }
        for op in self.ops.iter().filter(|op| !is_low(op)) {
            op.apply(amps, threads);
        }
        self.ops.clear();
    }
}

/// The product state that single-qubit gates make from `|0…0⟩`: one
/// column `U|0⟩` per qubit, into which each gate on that qubit is
/// multiplied. [`ProductState::write`] then fills the buffer in one pass
/// instead of one wall sweep per qubit.
pub(crate) struct ProductState {
    columns: Vec<[Complex; 2]>,
}

impl ProductState {
    /// `|0…0⟩` on `num_qubits` qubits.
    pub(crate) fn new(num_qubits: usize) -> Self {
        ProductState {
            columns: vec![[ONE, ZERO]; num_qubits],
        }
    }

    /// Multiplies a single-qubit gate into its qubit's column.
    ///
    /// # Panics
    ///
    /// Panics on a gate that is not single-qubit.
    pub(crate) fn apply(&mut self, instr: &Instruction) {
        let op = Op::from_instruction(instr);
        if op == Op::Identity {
            return;
        }
        let m = op.to_matrix2();
        let [v0, v1] = self.columns[instr.q0()];
        self.columns[instr.q0()] = [m[0][0] * v0 + m[0][1] * v1, m[1][0] * v0 + m[1][1] * v1];
    }

    /// Overwrites `amps`, of length `2^num_qubits`, with the state, by
    /// doubling in ascending bit order: once bits `0..j` are written to
    /// `amps[..2^j]`, bit `j` scales that block by its column's `|0⟩`
    /// entry and copies it, scaled by the `|1⟩` entry, to the next `2^j`.
    /// Every amplitude is the product of its bits' entries taken in
    /// ascending order, which for an all-`H` wall is exactly what the
    /// wall's butterflies compute. The doubling updates `2^(k+1) − 2`
    /// amplitudes, counted as two sweeps of the `2^k`.
    pub(crate) fn write(&self, amps: &mut [Complex]) {
        debug_assert_eq!(amps.len(), 1 << self.columns.len());
        count_updates(2, amps.len());
        amps[0] = ONE;
        for (j, &[u0, u1]) in self.columns.iter().enumerate() {
            let (lo, hi) = amps[..2 << j].split_at_mut(1 << j);
            for (l, h) in lo.iter_mut().zip(hi) {
                *h = *l * u1;
                *l *= u0;
            }
        }
    }
}

/// A group of two-qubit diagonal terms that share a phase pair and are
/// evaluated by *counting* rather than multiplying: per amplitude, count
/// how many pairs satisfy the group's predicate, then look the product up
/// in a precomputed power table.
#[derive(Debug)]
struct CountGroup {
    /// Two-bit operand masks, one per term.
    pair_masks: Vec<usize>,
    /// `table[c]` = accumulated phase when `c` pairs fire.
    table: Vec<Complex>,
}

/// The odd-pair counts of one parity group over an `n_bits`-bit index,
/// by row sums. An index splits into its low `l = ⌈n_bits/2⌉` bits, its
/// column, and the rest, its row. Three kinds of pair add to the count:
///
/// * a pair inside the low bits: looked up in `low`, a `2^l` table built
///   once per pass;
/// * a pair inside the high bits: the same for the whole row;
/// * a cross pair of low bit `j` and high bit `h`: odd iff the column's
///   bit `j` differs from the row's bit `h`, so along a row it adds
///   `bit_j` when `h` is clear and `1 − bit_j` when it is set.
///
/// A row's counts are therefore `base + Σ_j w_j·bit_j` plus the `low`
/// entry, and the subset sums over the `w_j` build by doubling, one add
/// per entry. The counts are the exact integers a per-amplitude popcount
/// gives, so the pass picks the same power-table entry for every
/// amplitude.
#[derive(Debug)]
struct ParityRows {
    /// Column bits per row, `l`.
    bits: usize,
    /// `low[col]`: odd pairs among the column's bits.
    low: Vec<u32>,
    /// Pair masks inside the high bits.
    high: Vec<usize>,
    /// `cross[j]`: the high bits paired with low bit `j`.
    cross: Vec<usize>,
}

impl ParityRows {
    fn new(pair_masks: &[usize], n_bits: usize) -> Self {
        let bits = n_bits.div_ceil(2);
        let col_mask = (1usize << bits) - 1;
        let mut low_pairs = Vec::new();
        let mut high = Vec::new();
        let mut cross = vec![0usize; bits];
        for &pm in pair_masks {
            match (pm & col_mask, pm & !col_mask) {
                (_, 0) => low_pairs.push(pm),
                (0, _) => high.push(pm),
                (lo, hi) => cross[lo.trailing_zeros() as usize] |= hi,
            }
        }
        let low = (0..=col_mask)
            .map(|col| odd_pairs(col, &low_pairs) as u32)
            .collect();
        ParityRows {
            bits,
            low,
            high,
            cross,
        }
    }

    /// Amplitudes per row, `2^l`.
    fn width(&self) -> usize {
        1 << self.bits
    }

    /// Writes into `counts` (one entry per column) the odd-pair counts of
    /// the row that starts at index `start`, a multiple of the width.
    fn fill(&self, start: usize, counts: &mut [u32]) {
        // Column 0: the high pairs plus every cross pair whose high bit
        // is set.
        let set_cross: usize = self
            .cross
            .iter()
            .map(|&h| (start & h).count_ones() as usize)
            .sum();
        counts[0] = (odd_pairs(start, &self.high) + set_cross) as u32;
        for (j, &h) in self.cross.iter().enumerate() {
            // Setting bit j makes the pairs through a clear high bit odd
            // and those through a set one even. `w` may be negative and
            // wraps, but every sum it enters is a count, so none wraps.
            let set = (start & h).count_ones();
            let w = h.count_ones().wrapping_sub(2 * set);
            let (done, next) = counts[..2 << j].split_at_mut(1 << j);
            for (n, &d) in next.iter_mut().zip(done.iter()) {
                *n = d.wrapping_add(w);
            }
        }
        for (c, &l) in counts.iter_mut().zip(&self.low) {
            *c += l;
        }
    }
}

/// `table[c] = lo^(k−c)·hi^c`: a counting group's phase when `c` of its
/// `k` pairs fire.
fn power_table(lo: Complex, hi: Complex, k: usize) -> Vec<Complex> {
    (0..=k)
        .map(|c| lo.powu((k - c) as u32) * hi.powu(c as u32))
        .collect()
}

/// The number of `pair_masks` whose two bits differ in `idx`.
fn odd_pairs(idx: usize, pair_masks: &[usize]) -> usize {
    pair_masks
        .iter()
        .map(|&pm| ((idx & pm).count_ones() & 1) as usize)
        .sum()
}

/// Fused run of consecutive diagonal gates. Push terms, then [`flush`]
/// applies the whole run in one pass over the amplitude buffer.
///
/// [`flush`]: DiagAccumulator::flush
#[derive(Debug, Default)]
pub(crate) struct DiagAccumulator {
    /// Per-qubit merged `diag(z0, z1)` terms, keyed by bit mask.
    one_q: Vec<(usize, Complex, Complex)>,
    /// Canonicalized (low-bit-first key) two-qubit terms, merged per pair.
    two_q: Vec<(usize, usize, [Complex; 4])>,
}

impl DiagAccumulator {
    pub(crate) fn is_empty(&self) -> bool {
        self.one_q.is_empty() && self.two_q.is_empty()
    }

    /// Merges a diagonal op into the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the op is not diagonal (callers check `is_diagonal`).
    pub(crate) fn push(&mut self, op: &Op) {
        match *op {
            Op::Identity => {}
            Op::Phase1 { bit, z0, z1 } => {
                if let Some(e) = self.one_q.iter_mut().find(|e| e.0 == bit) {
                    e.1 *= z0;
                    e.2 *= z1;
                } else {
                    self.one_q.push((bit, z0, z1));
                }
            }
            Op::Phase2 { ba, bb, phases } => {
                // Canonical operand order: key bit 1 = higher mask. A
                // reorder swaps the mixed entries (01 ↔ 10).
                let (ka, kb, ph) = if ba > bb {
                    (ba, bb, phases)
                } else {
                    (bb, ba, [phases[0], phases[2], phases[1], phases[3]])
                };
                if let Some(e) = self.two_q.iter_mut().find(|e| e.0 == ka && e.1 == kb) {
                    for (dst, src) in e.2.iter_mut().zip(ph) {
                        *dst *= src;
                    }
                } else {
                    self.two_q.push((ka, kb, ph));
                }
            }
            _ => panic!("cannot fuse a non-diagonal op"),
        }
    }

    /// Applies the accumulated run in a single pass and clears the
    /// accumulator. No-op when empty.
    pub(crate) fn flush(&mut self, amps: &mut [Complex], threads: usize) {
        if self.is_empty() {
            return;
        }
        if qtrace::enabled() {
            qtrace::global().observe(
                "qsim/fused_diag_run_len",
                (self.one_q.len() + self.two_q.len()) as u64,
            );
        }
        count_updates(1, amps.len());
        let one_q = std::mem::take(&mut self.one_q);
        let two_q = std::mem::take(&mut self.two_q);

        // Classify the two-qubit terms into counting groups.
        let mut parity: Vec<(Complex, Complex, Vec<usize>)> = Vec::new();
        let mut both: Vec<(Complex, Vec<usize>)> = Vec::new();
        let mut general: Vec<(usize, usize, [Complex; 4])> = Vec::new();
        let same_bits = |x: Complex, y: Complex| {
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
        };
        for (ka, kb, ph) in two_q {
            let pm = ka | kb;
            if same_bits(ph[0], ph[3]) && same_bits(ph[1], ph[2]) {
                let (s, d) = (ph[0], ph[1]);
                if let Some(g) = parity
                    .iter_mut()
                    .find(|g| same_bits(g.0, s) && same_bits(g.1, d))
                {
                    g.2.push(pm);
                } else {
                    parity.push((s, d, vec![pm]));
                }
            } else if same_bits(ph[0], ONE) && same_bits(ph[1], ONE) && same_bits(ph[2], ONE) {
                let p = ph[3];
                if let Some(g) = both.iter_mut().find(|g| same_bits(g.0, p)) {
                    g.1.push(pm);
                } else {
                    both.push((p, vec![pm]));
                }
            } else {
                general.push((ka, kb, ph));
            }
        }
        let parity_groups: Vec<CountGroup> = parity
            .into_iter()
            .map(|(s, d, pair_masks)| {
                let table = power_table(s, d, pair_masks.len());
                CountGroup { pair_masks, table }
            })
            .collect();
        let both_groups: Vec<CountGroup> = both
            .into_iter()
            .map(|(p, pair_masks)| {
                let table = power_table(ONE, p, pair_masks.len());
                CountGroup { pair_masks, table }
            })
            .collect();

        // The QAOA cost layer: one parity group, nothing else. Worth a
        // dedicated loop — it is the single hottest path in the engine.
        // Its counts come by row sums, with no popcount and no
        // loop-carried count per amplitude (see [`ParityRows`]).
        if one_q.is_empty()
            && both_groups.is_empty()
            && general.is_empty()
            && parity_groups.len() == 1
        {
            let g = &parity_groups[0];
            let rows = ParityRows::new(&g.pair_masks, amps.len().trailing_zeros() as usize);
            let width = rows.width();
            par::chunked(amps, width, threads, |offset, chunk| {
                let mut counts = vec![0u32; width];
                for (r, row) in chunk.chunks_exact_mut(width).enumerate() {
                    rows.fill(offset + r * width, &mut counts);
                    for (a, &c) in row.iter_mut().zip(&counts) {
                        *a *= g.table[c as usize];
                    }
                }
            });
            return;
        }

        par::chunked(amps, 1, threads, |offset, chunk| {
            for (i, a) in chunk.iter_mut().enumerate() {
                let idx = offset + i;
                let mut z = ONE;
                for &(m, z0, z1) in &one_q {
                    z *= if idx & m == 0 { z0 } else { z1 };
                }
                for g in &parity_groups {
                    z *= g.table[odd_pairs(idx, &g.pair_masks)];
                }
                for g in &both_groups {
                    let mut c = 0usize;
                    for &pm in &g.pair_masks {
                        c += usize::from(idx & pm == pm);
                    }
                    z *= g.table[c];
                }
                for &(ka, kb, ph) in &general {
                    let key = (usize::from(idx & ka != 0) << 1) | usize::from(idx & kb != 0);
                    z *= ph[key];
                }
                *a *= z;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::{Duration, Instant};

    /// The per-amplitude popcount pass that row sums replace: the oracle
    /// for one parity group.
    fn popcount_pass(amps: &mut [Complex], pair_masks: &[usize], table: &[Complex]) {
        for (idx, a) in amps.iter_mut().enumerate() {
            *a *= table[odd_pairs(idx, pair_masks)];
        }
    }

    /// An `n`-qubit buffer whose amplitudes all differ, so a wrong table
    /// entry anywhere shows.
    fn distinct_amps(n: usize) -> Vec<Complex> {
        (0..1usize << n)
            .map(|i| Complex::new(1.0 + i as f64 / 7.0, 0.5 - i as f64 / 11.0))
            .collect()
    }

    /// The `RZZ(γ)` cost layer over `pairs`, through the accumulator on
    /// `threads` threads.
    fn fused_pass(amps: &mut [Complex], pairs: &[(usize, usize)], gamma: f64, threads: usize) {
        let mut acc = DiagAccumulator::default();
        for &(a, b) in pairs {
            acc.push(&Op::from_instruction(&Instruction::two(
                Gate::Rzz(gamma.into()),
                a,
                b,
            )));
        }
        acc.flush(amps, threads);
    }

    /// The power table the accumulator builds for `RZZ(γ)` over `k`
    /// distinct pairs.
    fn rzz_table(gamma: f64, k: usize) -> Vec<Complex> {
        match Op::from_instruction(&Instruction::two(Gate::Rzz(gamma.into()), 0, 1)) {
            Op::Phase2 { phases, .. } => power_table(phases[0], phases[1], k),
            op => panic!("RZZ lowered to {op:?}"),
        }
    }

    fn masks(pairs: &[(usize, usize)]) -> Vec<usize> {
        pairs.iter().map(|&(a, b)| 1 << a | 1 << b).collect()
    }

    /// Distinct pairs on 8–16 bits, each inside the low `⌈n/2⌉` bits,
    /// inside the rest or across the split; or, one case in four, every
    /// pair (a complete graph).
    fn arb_pairs() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (8usize..17).prop_flat_map(|n| {
            let pick = (0..3u8, 0..n, 1..n);
            (Just(n), 0..4u8, proptest::collection::vec(pick, 1..3 * n)).prop_map(
                |(n, shape, picks)| {
                    let l = n.div_ceil(2);
                    let mut pairs: Vec<(usize, usize)> = if shape == 0 {
                        (0..n)
                            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                            .collect()
                    } else {
                        picks
                            .into_iter()
                            .map(|(class, x, y)| match class {
                                0 => (x % l, (x + 1 + y % (l - 1)) % l),
                                1 => (l + x % (n - l), l + (x + 1 + y % (n - l - 1)) % (n - l)),
                                _ => (x % l, l + y % (n - l)),
                            })
                            .map(|(a, b)| (a.min(b), a.max(b)))
                            .collect()
                    };
                    pairs.sort_unstable();
                    pairs.dedup();
                    (n, pairs)
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every row's counts are the per-amplitude popcount counts.
        #[test]
        fn row_sums_count_like_popcounts(case in arb_pairs()) {
            let (n, pairs) = case;
            let pm = masks(&pairs);
            let rows = ParityRows::new(&pm, n);
            let mut counts = vec![0u32; rows.width()];
            for start in (0..1usize << n).step_by(rows.width()) {
                rows.fill(start, &mut counts);
                for (col, &c) in counts.iter().enumerate() {
                    prop_assert_eq!(c as usize, odd_pairs(start + col, &pm), "index {}", start + col);
                }
            }
        }

        /// The fused pass equals the popcount oracle bit for bit, on one
        /// thread and on 2–8.
        #[test]
        fn row_sum_pass_matches_popcount_oracle(
            case in arb_pairs(),
            gamma in -3.0f64..3.0,
            threads in 2usize..9,
        ) {
            let (n, pairs) = case;
            let mut want = distinct_amps(n);
            popcount_pass(&mut want, &masks(&pairs), &rzz_table(gamma, pairs.len()));
            for t in [1, threads] {
                let mut got = distinct_amps(n);
                fused_pass(&mut got, &pairs, gamma, t);
                prop_assert!(got == want, "threads={}", t);
            }
        }
    }

    #[test]
    fn row_sums_cover_registers_too_small_to_split() {
        // k = 2 and 3: one or two column bits, one cross pair or none.
        for (n, pairs) in [(2, vec![(0, 1)]), (3, vec![(0, 1), (1, 2), (0, 2)])] {
            let mut want = distinct_amps(n);
            popcount_pass(&mut want, &masks(&pairs), &rzz_table(0.7, pairs.len()));
            let mut got = distinct_amps(n);
            fused_pass(&mut got, &pairs, 0.7, 1);
            assert_eq!(got, want, "n={n}");
        }
    }

    /// 14 nodes, each joined to its ring neighbours and to the node
    /// opposite: a 3-regular graph of 21 edges.
    fn three_regular_14() -> Vec<(usize, usize)> {
        let n = 14;
        let ring = (0..n).map(|a| (a, (a + 1) % n));
        let chords = (0..n / 2).map(|a| (a, a + n / 2));
        ring.chain(chords).collect()
    }

    /// Timing guard: the fused cost-layer pass must beat the popcount
    /// oracle by 2× on a 14-qubit 3-regular graph. In-process and
    /// interleaved, best of 30 rounds of 5 passes each, so host load
    /// moves both sides alike. Ignored by default (it times); CI runs it
    /// with `--ignored` in a release build.
    #[test]
    #[ignore]
    fn cost_layer_pass_beats_popcount_oracle() {
        const FLOOR: f64 = 2.0;
        let pairs = three_regular_14();
        let (pm, table) = (masks(&pairs), rzz_table(0.4, pairs.len()));
        let mut amps = distinct_amps(14);
        let time = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            for _ in 0..5 {
                f();
            }
            t.elapsed() / 5
        };
        let (mut fused, mut oracle) = (Duration::MAX, Duration::MAX);
        for _ in 0..30 {
            fused = fused.min(time(&mut || fused_pass(&mut amps, &pairs, 0.4, 1)));
            oracle = oracle.min(time(&mut || popcount_pass(&mut amps, &pm, &table)));
        }
        let ratio = oracle.as_secs_f64() / fused.as_secs_f64();
        println!("cost-layer pass {fused:?}, popcount oracle {oracle:?}: ×{ratio:.2}");
        assert!(ratio >= FLOOR, "×{ratio:.2} is below the ×{FLOOR} floor");
    }
}
