//! Host speed calibration.
//!
//! The benchmark's host shares its processors with other machines, and
//! how fast it runs the simulator drifts by tens of percent within a
//! second and over minutes, with no CPU steal to show for it. A fixed
//! piece of this crate's own work, run right after each timed piece of
//! the benchmark, measures that speed, and [`RefClock`] divides each
//! piece's host time by the speed measured on both sides of it. The
//! work is a small bytecode interpreter running a fixed random program,
//! because the engines under test are interpreters too: indirect
//! dispatch, data-dependent branches, loads and stores in a
//! cache-resident memory. A memory-latency loop or an arithmetic
//! dependency chain tracks the simulator's drift much less well (see
//! `README.md`).
//!
//! The calibration code belongs to the benchmark, not to the program
//! under test, so a change to the program never moves it.

use std::hint::black_box;
use std::time::Instant;

/// Instructions of the calibration program.
const PROGRAM_LEN: usize = 4096;
/// Words of the interpreter's memory (16 KiB).
const MEM_WORDS: usize = 2048;
/// Interpreted instructions in one calibration unit.
const UNIT_STEPS: u32 = 1 << 18;
/// Seconds one unit takes on the reference host: a round figure within
/// the 0.6-0.9 ms one unit took on the 2-vCPU Xeon virtual machine the
/// benchmark was tuned on. Reference times are host times scaled to a
/// host that runs a unit in exactly this long.
pub const REFERENCE_UNIT_S: f64 = 0.8e-3;
/// Units of the first sample, which has no work before it to size it.
const FIRST_UNITS: u32 = 10;
/// Share of a piece of work's time spent calibrating after it.
const SHARE: f64 = 0.2;
/// Most units in one sample.
const MAX_UNITS: u32 = 1000;

/// The calibration interpreter, its fixed program and its memory.
struct Calibrator {
    program: Vec<u32>,
    mem: Vec<u64>,
}

impl Calibrator {
    /// Generates the program from a fixed seed.
    fn new() -> Calibrator {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let program = (0..PROGRAM_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            })
            .collect();
        Calibrator {
            program,
            mem: vec![0; MEM_WORDS],
        }
    }

    /// Interprets `units` units of the program and returns the host
    /// seconds per unit.
    ///
    /// An instruction word holds an opcode (bits 0-3), two register
    /// numbers (bits 4-7, 8-11) and an operand (bits 12-31) that is a
    /// third register, a shift, an immediate or a jump target.
    fn sample(&mut self, units: u32) -> f64 {
        let units = units.max(1);
        let t = Instant::now();
        let mut r = [1u64; 16];
        let mem = &mut self.mem;
        let mut pc = 0usize;
        for _ in 0..units * UNIT_STEPS {
            let ins = self.program[pc];
            let (a, b, c) = (
                (ins >> 4 & 15) as usize,
                (ins >> 8 & 15) as usize,
                ins >> 12,
            );
            let rc = r[c as usize & 15];
            let addr = |v: u64| (v >> 3) as usize % MEM_WORDS;
            pc += 1;
            match ins & 15 {
                0 => r[a] = r[b].wrapping_add(rc),
                1 => r[a] = r[b] ^ (rc >> 3),
                2 => r[a] = r[b].wrapping_mul(rc | 1),
                3 => r[a] = r[b].rotate_left(c & 63),
                4 => r[a] = mem[addr(r[b])],
                5 => mem[addr(r[b])] = r[a],
                6 => r[a] = r[b].wrapping_sub(u64::from(c)),
                7 => r[a] = r[b] | (rc & 0xff),
                8 => {
                    if r[a] & (1 << b) != 0 {
                        pc = c as usize;
                    }
                }
                9 => r[a] ^= r[b] >> (c & 31),
                10 => r[a] = r[b].wrapping_add(u64::from(c)),
                11 => r[a] = u64::from(r[b] < rc),
                12 => r[a] = r[b] & rc,
                13 => r[a] = r[b].wrapping_shl(c & 7),
                14 => r[a] = mem[addr(r[a] ^ u64::from(c))].wrapping_add(r[b]),
                _ => pc = c as usize,
            }
            pc %= PROGRAM_LEN;
        }
        black_box((&r, &mem));
        t.elapsed().as_secs_f64() / f64::from(units)
    }
}

/// Times pieces of work in host and in reference seconds.
pub struct RefClock {
    cal: Calibrator,
    /// Seconds per unit of the last sample.
    last: f64,
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RefClock {
    /// A clock with a first calibration sample taken.
    pub fn new() -> RefClock {
        let mut cal = Calibrator::new();
        let last = cal.sample(FIRST_UNITS);
        RefClock { cal, last }
    }

    /// Runs `f`, then calibrates for a fifth of the time `f` took.
    /// Returns `f`'s result, its host seconds and its reference seconds:
    /// the host seconds over the slowdown, the mean seconds per unit of
    /// the samples before and after `f` over [`REFERENCE_UNIT_S`].
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let t = Instant::now();
        let r = f();
        let host_s = t.elapsed().as_secs_f64();
        let units = ((host_s * SHARE / self.last) as u32).clamp(1, MAX_UNITS);
        let after = self.cal.sample(units);
        let slowdown = (self.last + after) / 2.0 / REFERENCE_UNIT_S;
        self.last = after;
        (r, host_s, host_s / slowdown)
    }
}
