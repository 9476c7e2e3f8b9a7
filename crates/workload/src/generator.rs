//! Synthetic memory-reference generation.
//!
//! [`TraceGenerator`] turns a [`BenchmarkProfile`] into per-CPU infinite
//! reference streams. Each CPU owns a private region (a hot set the L1
//! absorbs, a large streaming array, a code loop) and all CPUs share one
//! region that creates inter-processor sharing and coherence traffic.
//! Everything is driven by one seeded RNG per CPU, so runs are
//! bit-for-bit reproducible and different CPUs are decorrelated.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use nim_types::{AccessKind, Address, CpuId, TraceOp};

use crate::profile::BenchmarkProfile;

/// Cache-line size assumed by the region layout (matches Table 4).
const LINE: u64 = 64;

/// Base of each CPU's private region (256 MB apart). The low offset
/// staggers the NUCA home-cluster field (byte-address bits [16, 20) for
/// the default geometry) so different CPUs' private data is born in
/// different clusters instead of aliasing onto the same sets.
fn private_base(cpu: CpuId) -> u64 {
    let c = cpu.index() as u64;
    ((1 + c) << 28) | (c << 16)
}

/// Base of the shared region (above every private region).
const SHARED_BASE: u64 = 1 << 40;

/// `pos % len` for a ring position one step past a position below
/// `len`, where the step is no longer than `len` (every region is at
/// least one 64-byte line; steps are 4 or 8 bytes): one compare instead
/// of a division.
#[inline]
fn wrap(pos: u64, len: u64) -> u64 {
    debug_assert!(pos < 2 * len);
    if pos >= len {
        pos - len
    } else {
        pos
    }
}

/// One contiguous region of memory, line-aligned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// First byte address.
    pub base: u64,
    /// Extent in cache lines.
    pub lines: u32,
}

impl Region {
    /// Iterates the first byte address of every line in the region.
    pub fn line_addrs(&self) -> impl Iterator<Item = Address> + '_ {
        (0..u64::from(self.lines)).map(move |i| Address(self.base + i * LINE))
    }
}

/// The private regions one CPU touches under a profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuRegions {
    /// Hot set (L1-resident reuse).
    pub hot: Region,
    /// Streaming array.
    pub stream: Region,
    /// Code loop (instruction fetches).
    pub code: Region,
}

/// The private regions of `cpu` under `profile` (the same layout
/// [`TraceGenerator::next_op`] draws addresses from).
pub fn cpu_regions(profile: &BenchmarkProfile, cpu: CpuId) -> CpuRegions {
    let base = private_base(cpu);
    CpuRegions {
        hot: Region {
            base,
            lines: profile.hot_lines,
        },
        stream: Region {
            base: base + (1 << 24),
            lines: profile.footprint_lines,
        },
        code: Region {
            base: base + (1 << 26),
            lines: profile.code_lines,
        },
    }
}

/// The region all CPUs share under `profile`.
pub fn shared_region(profile: &BenchmarkProfile) -> Region {
    Region {
        base: SHARED_BASE,
        lines: profile.shared_lines,
    }
}

#[derive(Debug)]
struct CpuStream {
    rng: StdRng,
    /// Byte offset within the private streaming array.
    stream_pos: u64,
    /// Byte offset within the shared region (each thread walks its own
    /// moving window, like an OMP loop partition).
    shared_pos: u64,
    /// Byte offset within the code loop.
    code_pos: u64,
}

/// Total ops (across all CPUs) between thread-to-CPU rotations.
///
/// The paper's evaluation runs under Solaris 9, whose scheduler
/// periodically moves threads between processors; every rotation
/// invalidates whatever locality migration had built for the departing
/// thread. The period is chosen so a measurement window experiences a
/// handful of scheduler moves with enough time in between for migration
/// to partially re-converge — the same regime as the paper's 2 G-cycle
/// windows under ~10 ms Solaris scheduling quanta.
pub const ROTATION_PERIOD_OPS: u64 = 40_000;

/// Anything that can feed per-CPU reference streams to the simulator:
/// the synthetic [`TraceGenerator`], a [`ReplayTrace`](crate::ReplayTrace)
/// read back from disk, or custom test stubs.
pub trait TraceSource {
    /// The next reference for `cpu`; `None` ends that CPU's stream (the
    /// core retires its last instruction and halts).
    fn next_for(&mut self, cpu: CpuId) -> Option<TraceOp>;

    /// References served so far, across every CPU: the position a
    /// snapshot folds into the digest of the state it names.
    fn served(&self) -> u64;
}

impl TraceSource for TraceGenerator {
    fn next_for(&mut self, cpu: CpuId) -> Option<TraceOp> {
        Some(self.next_op(cpu))
    }

    fn served(&self) -> u64 {
        // `ops_until_rotate` counts down once per reference and restarts
        // at every rotation.
        self.rotation as u64 * ROTATION_PERIOD_OPS + (ROTATION_PERIOD_OPS - self.ops_until_rotate)
    }
}

/// Deterministic per-CPU reference generator for one benchmark.
///
/// Streams belong to *threads*; the thread → CPU binding rotates every
/// [`ROTATION_PERIOD_OPS`] references, as an OS scheduler would.
#[derive(Debug)]
pub struct TraceGenerator {
    profile: BenchmarkProfile,
    /// Probability that an instruction slot holds a memory reference.
    rate: f64,
    /// `ln(1 − rate)`, the denominator of every geometric gap draw.
    ln_keep: f64,
    threads: Vec<CpuStream>,
    /// Current rotation of the thread → CPU binding.
    rotation: usize,
    ops_until_rotate: u64,
}

impl TraceGenerator {
    /// Creates streams for `num_cpus` CPUs from a master `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails `BenchmarkProfile::validate`.
    pub fn new(profile: &BenchmarkProfile, num_cpus: u32, seed: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", profile.name));
        let rate = (profile.mem_per_instr + profile.ifetch_frac).min(1.0);
        Self {
            profile: *profile,
            rate,
            ln_keep: (1.0 - rate).ln(),
            rotation: 0,
            ops_until_rotate: ROTATION_PERIOD_OPS,
            threads: (0..num_cpus)
                .map(|c| {
                    let shared_bytes = u64::from(profile.shared_lines) * LINE;
                    CpuStream {
                        rng: StdRng::seed_from_u64(
                            seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(c) + 1)),
                        ),
                        stream_pos: 0,
                        // Threads start spread over the shared region, as
                        // OMP's static loop scheduling would place them.
                        shared_pos: shared_bytes * u64::from(c) / u64::from(num_cpus.max(1)),
                        code_pos: 0,
                    }
                })
                .collect(),
        }
    }

    /// The profile driving this generator.
    #[inline]
    pub fn profile(&self) -> &BenchmarkProfile {
        &self.profile
    }

    /// Next reference for `cpu` (streams are infinite).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn next_op(&mut self, cpu: CpuId) -> TraceOp {
        self.ops_until_rotate -= 1;
        if self.ops_until_rotate == 0 {
            self.ops_until_rotate = ROTATION_PERIOD_OPS;
            self.rotation += 1;
        }
        let thread = (cpu.index() + self.rotation) % self.threads.len();
        self.draw(thread)
    }

    /// Draws the next reference of `thread`. Mutates only that thread's
    /// stream state.
    fn draw(&mut self, thread: usize) -> TraceOp {
        let p = self.profile;
        let thread_id = CpuId::from_index(thread);
        let state = &mut self.threads[thread];
        // Instruction gap: geometric with memory-op probability
        // mem_per_instr + ifetch_frac per instruction slot.
        let rate = self.rate;
        let u: f64 = state.rng.random();
        let gap = if rate >= 1.0 {
            0
        } else {
            ((1.0 - u).ln() / self.ln_keep).min(10_000.0) as u32
        };
        // Kind: instruction fetch vs data; stores among data refs.
        let is_ifetch = state.rng.random::<f64>() < p.ifetch_frac / rate;
        if is_ifetch {
            // Walk the code loop: 4-byte instructions, sequential, wrapping.
            let code_bytes = u64::from(p.code_lines) * LINE;
            let addr = private_base(thread_id) + (1 << 26) + state.code_pos;
            state.code_pos = wrap(state.code_pos + 4, code_bytes);
            return TraceOp {
                gap,
                kind: AccessKind::IFetch,
                addr: Address(addr),
            };
        }
        let kind = if state.rng.random::<f64>() < p.store_frac {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        // Region: shared, streaming, or hot.
        let r: f64 = state.rng.random();
        let addr = if r < p.shared_frac {
            // Walk the shared region with an 8 B stride — the OMP loop
            // partition pattern. With probability `shared_reuse`, re-touch
            // the current (L1-resident) line instead of advancing — inner
            // loops reusing operands. Occasionally jump to a random
            // position (reduction variables, boundary exchange), which
            // also makes the windows of different threads collide.
            let shared_bytes = u64::from(p.shared_lines) * LINE;
            if state.rng.random::<f64>() < p.shared_reuse {
                let line_base = state.shared_pos / LINE * LINE;
                SHARED_BASE + line_base + state.rng.random_range(0..8u64) * 8
            } else {
                if state.rng.random::<f64>() < 0.05 {
                    state.shared_pos = state.rng.random_range(0..u64::from(p.shared_lines)) * LINE;
                }
                let addr = SHARED_BASE + state.shared_pos;
                state.shared_pos = wrap(state.shared_pos + 8, shared_bytes);
                addr
            }
        } else if r < p.shared_frac + p.streaming_frac {
            let stream_bytes = u64::from(p.footprint_lines) * LINE;
            let addr = private_base(thread_id) + (1 << 24) + state.stream_pos;
            state.stream_pos = wrap(state.stream_pos + 8, stream_bytes);
            addr
        } else {
            let line = state.rng.random_range(0..u64::from(p.hot_lines));
            private_base(thread_id) + line * LINE + state.rng.random_range(0..8u64) * 8
        };
        TraceOp {
            gap,
            kind,
            addr: Address(addr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> TraceGenerator {
        TraceGenerator::new(&BenchmarkProfile::synthetic(), 8, 1234)
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = generator();
        let mut b = generator();
        for i in 0..1000 {
            assert_eq!(a.next_op(CpuId(3)), b.next_op(CpuId(3)), "op {i}");
        }
    }

    #[test]
    fn different_cpus_get_different_streams() {
        let mut g = generator();
        let ops0: Vec<_> = (0..100).map(|_| g.next_op(CpuId(0))).collect();
        let ops1: Vec<_> = (0..100).map(|_| g.next_op(CpuId(1))).collect();
        assert_ne!(ops0, ops1);
    }

    #[test]
    fn mean_gap_matches_the_memory_density() {
        let mut g = generator();
        let n = 50_000;
        let total_gap: u64 = (0..n).map(|_| u64::from(g.next_op(CpuId(0)).gap)).sum();
        let rate = 0.4 + 0.01; // synthetic profile: mem + ifetch
        let expect = (1.0 - rate) / rate;
        let mean = total_gap as f64 / f64::from(n);
        assert!(
            (mean - expect).abs() < 0.1,
            "mean gap {mean} vs expected {expect}"
        );
    }

    #[test]
    fn region_mix_approximates_the_profile() {
        let mut g = generator();
        let n = 50_000;
        let mut shared = 0u32;
        let mut stores = 0u32;
        let mut ifetch = 0u32;
        for _ in 0..n {
            let op = g.next_op(CpuId(2));
            if op.addr.0 >= SHARED_BASE {
                shared += 1;
            }
            match op.kind {
                AccessKind::Write => stores += 1,
                AccessKind::IFetch => ifetch += 1,
                AccessKind::Read => {}
            }
        }
        let shared_frac = f64::from(shared) / f64::from(n);
        assert!((shared_frac - 0.25).abs() < 0.03, "shared {shared_frac}");
        let store_frac = f64::from(stores) / f64::from(n - ifetch);
        assert!((store_frac - 0.15).abs() < 0.03, "stores {store_frac}");
    }

    #[test]
    fn private_addresses_never_collide_between_cpus() {
        let mut g = generator();
        for c in 0..8u16 {
            for _ in 0..200 {
                let op = g.next_op(CpuId(c));
                if op.addr.0 < SHARED_BASE {
                    let region = op.addr.0 >> 28;
                    assert_eq!(region, u64::from(c) + 1, "cpu {c} strayed");
                }
            }
        }
    }

    #[test]
    fn streaming_walks_sequentially() {
        // A profile that only streams: addresses must advance by 8 bytes.
        let mut p = BenchmarkProfile::synthetic();
        p.streaming_frac = 1.0;
        p.shared_frac = 0.0;
        p.ifetch_frac = 0.0;
        let mut g = TraceGenerator::new(&p, 1, 7);
        let a0 = g.next_op(CpuId(0)).addr.0;
        let a1 = g.next_op(CpuId(0)).addr.0;
        let a2 = g.next_op(CpuId(0)).addr.0;
        assert_eq!(a1 - a0, 8);
        assert_eq!(a2 - a1, 8);
    }

    #[test]
    fn generated_addresses_stay_inside_the_declared_regions() {
        let profile = BenchmarkProfile::synthetic();
        let mut g = TraceGenerator::new(&profile, 4, 99);
        let shared = shared_region(&profile);
        for c in 0..4u16 {
            let regions = cpu_regions(&profile, CpuId(c));
            for _ in 0..2_000 {
                let op = g.next_op(CpuId(c));
                let a = op.addr.0;
                let inside = |r: &Region| a >= r.base && a < r.base + u64::from(r.lines) * LINE;
                assert!(
                    inside(&regions.hot)
                        || inside(&regions.stream)
                        || inside(&regions.code)
                        || inside(&shared),
                    "address {a:#x} outside every declared region"
                );
            }
        }
    }

    #[test]
    fn region_line_addrs_cover_the_region_exactly() {
        let r = Region {
            base: 0x1000,
            lines: 4,
        };
        let addrs: Vec<u64> = r.line_addrs().map(|a| a.0).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10c0]);
    }

    #[test]
    fn trace_source_counts_served_references() {
        let mut g = generator();
        assert_eq!(TraceSource::served(&g), 0);
        // Across a rotation boundary, whichever CPU asks.
        for i in 0..ROTATION_PERIOD_OPS + 7 {
            let _ = g.next_op(CpuId((i % 8) as u16));
        }
        assert_eq!(TraceSource::served(&g), ROTATION_PERIOD_OPS + 7);
    }

    #[test]
    #[should_panic(expected = "invalid profile")]
    fn invalid_profiles_are_rejected() {
        let mut p = BenchmarkProfile::synthetic();
        p.streaming_frac = 0.9;
        p.shared_frac = 0.9;
        let _ = TraceGenerator::new(&p, 1, 0);
    }
}
