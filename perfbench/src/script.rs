//! Seeded operation scripts: the only input the program under test sees.
//!
//! The same seed gives the same script on every host. Register `k` is
//! written only by process `k % n` (SWMR), reads come from a uniformly
//! chosen process, and every written value is unique so the checker can
//! tell writes apart.

use twobit_proto::{Operation, ProcessId, RegisterId};

/// SplitMix64: small, seedable, and identical everywhere.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// How often each register is picked.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Popularity {
    /// Every register equally often.
    Uniform,
    /// Register `k` (0-based) with weight `1 / (k + 1)^s`.
    Zipf(f64),
}

/// One scripted operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSpec {
    /// The invoking process.
    pub proc: ProcessId,
    /// The target register.
    pub reg: RegisterId,
    /// The operation.
    pub op: Operation<u64>,
}

impl OpSpec {
    /// Whether this is a read.
    pub fn is_read(&self) -> bool {
        matches!(self.op, Operation::Read)
    }
}

/// What a script is drawn from.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Processes (`n`).
    pub n: usize,
    /// Registers hosted.
    pub registers: usize,
    /// Register popularity.
    pub popularity: Popularity,
    /// Share of reads, in `[0, 1]`.
    pub read_share: f64,
}

/// First value written by the warm-up script: far above any value a
/// [`script`] writes, so the two never repeat a value.
pub const WARM_UP_VALUES: u64 = 1 << 40;

/// `count` operations drawn from `mix` with `seed`. Written values are
/// 1, 2, 3, ..., so a script never repeats a value.
pub fn script(mix: &Mix, seed: u64, count: usize) -> Vec<OpSpec> {
    let mut rng = Rng::new(seed);
    let cdf: Vec<f64> = {
        let weights: Vec<f64> = (0..mix.registers)
            .map(|k| match mix.popularity {
                Popularity::Uniform => 1.0,
                Popularity::Zipf(s) => 1.0 / ((k + 1) as f64).powf(s),
            })
            .collect();
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect()
    };
    let mut next_value = 0;
    (0..count)
        .map(|_| {
            let u = rng.unit();
            let k = cdf.partition_point(|c| *c <= u).min(mix.registers - 1);
            let reg = RegisterId::new(k);
            if rng.unit() < mix.read_share {
                OpSpec {
                    proc: ProcessId::new(rng.below(mix.n)),
                    reg,
                    op: Operation::Read,
                }
            } else {
                next_value += 1;
                OpSpec {
                    proc: ProcessId::new(k % mix.n),
                    reg,
                    op: Operation::Write(next_value),
                }
            }
        })
        .collect()
}

/// The warm-up script: one write to each of the first `n` registers (by
/// its writer), then one read by every process. A two-bit WRITE and READ
/// each go to every peer, so every ordered link carries a frame before
/// timing starts. Written values start at [`WARM_UP_VALUES`].
pub fn warm_up(n: usize, registers: usize) -> Vec<OpSpec> {
    let writes = (0..n.min(registers)).map(|k| OpSpec {
        proc: ProcessId::new(k % n),
        reg: RegisterId::new(k),
        op: Operation::Write(WARM_UP_VALUES + k as u64),
    });
    let reads = (0..n).map(|p| OpSpec {
        proc: ProcessId::new(p),
        reg: RegisterId::ZERO,
        op: Operation::Read,
    });
    writes.chain(reads).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_prefers_low_registers_and_respects_the_read_share() {
        let mix = Mix {
            n: 5,
            registers: 64,
            popularity: Popularity::Zipf(1.0),
            read_share: 0.9,
        };
        let s = script(&mix, 7, 20_000);
        let reads = s.iter().filter(|o| o.is_read()).count() as f64 / s.len() as f64;
        assert!((reads - 0.9).abs() < 0.01, "read share {reads}");
        let hot = s.iter().filter(|o| o.reg == RegisterId::new(0)).count();
        let cold = s.iter().filter(|o| o.reg == RegisterId::new(63)).count();
        assert!(hot > 20 * cold, "hot {hot} cold {cold}");
        for o in s.iter().filter(|o| !o.is_read()) {
            assert_eq!(o.proc.index(), o.reg.index() % 5, "SWMR writer");
        }
    }
}
