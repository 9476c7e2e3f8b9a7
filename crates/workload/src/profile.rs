//! SPEC OMP benchmark profiles (paper Table 5).
//!
//! The paper drives its evaluation with nine SPEC OMP 2001 benchmarks
//! running under Simics. We cannot re-run Simics, so each benchmark is
//! characterised by a *statistical profile* — memory-operation density,
//! store share, streaming-vs-resident access mix, sharing degree, and
//! working-set sizes — chosen so the resulting synthetic reference
//! streams reproduce the property the figures depend on: mgrid, swim,
//! and wupwise produce far more L2 transactions (high L1 miss rates)
//! than the other six. The Table 5 fast-forward and transaction counts
//! are carried verbatim for documentation and sanity tests.

/// Statistical profile of one benchmark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchmarkProfile {
    /// Benchmark name as in Table 5.
    pub name: &'static str,
    /// Fast-forward length from Table 5 (million cycles) — documentation.
    pub fastforward_mcycles: u64,
    /// L2 transactions the paper sampled in 2 G cycles (Table 5).
    pub paper_l2_transactions: u64,
    /// Probability that an instruction is a data memory operation.
    pub mem_per_instr: f64,
    /// Fraction of data memory operations that are stores (write-through:
    /// every store becomes an L2 transaction).
    pub store_frac: f64,
    /// Probability that an instruction slot is an instruction-fetch
    /// reference (models I-cache pressure; code mostly fits in L1I).
    pub ifetch_frac: f64,
    /// Fraction of data references that *stream* through a large array
    /// (sequential 8 B stride: compulsory L1 miss every 8th access).
    pub streaming_frac: f64,
    /// Fraction of data references that touch the shared region.
    pub shared_frac: f64,
    /// Probability that a shared reference revisits the thread's current
    /// (L1-resident) line instead of advancing the walk — high for codes
    /// whose inner loops re-touch operands (low L1 miss rate), near zero
    /// for single-pass streaming solvers like swim/mgrid.
    pub shared_reuse: f64,
    /// Per-CPU hot working set (cache lines; sized to fit in L1).
    pub hot_lines: u32,
    /// Per-CPU streaming footprint (cache lines).
    pub footprint_lines: u32,
    /// Shared-region size (cache lines).
    pub shared_lines: u32,
    /// Code footprint (cache lines) looped by instruction fetches.
    pub code_lines: u32,
}

impl BenchmarkProfile {
    /// `ammp` — molecular dynamics; few L2 transactions.
    pub(crate) fn ammp() -> Self {
        Self {
            name: "ammp",
            fastforward_mcycles: 3_633,
            paper_l2_transactions: 24_508_715,
            mem_per_instr: 0.26,
            store_frac: 0.03,
            ifetch_frac: 0.012,
            streaming_frac: 0.04,
            shared_frac: 0.55,
            shared_reuse: 0.45,
            hot_lines: 448,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 14,
            code_lines: 320,
        }
    }

    /// `apsi` — air pollution model; moderate L2 traffic.
    pub(crate) fn apsi() -> Self {
        Self {
            name: "apsi",
            fastforward_mcycles: 4_453,
            paper_l2_transactions: 27_013_447,
            mem_per_instr: 0.28,
            store_frac: 0.04,
            ifetch_frac: 0.012,
            streaming_frac: 0.05,
            shared_frac: 0.55,
            shared_reuse: 0.42,
            hot_lines: 448,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 14,
            code_lines: 384,
        }
    }

    /// `art` — neural-network image recognition; low L1 miss rate.
    pub fn art() -> Self {
        Self {
            name: "art",
            fastforward_mcycles: 3_523,
            paper_l2_transactions: 25_638_435,
            mem_per_instr: 0.3,
            store_frac: 0.03,
            ifetch_frac: 0.01,
            streaming_frac: 0.04,
            shared_frac: 0.58,
            shared_reuse: 0.4,
            hot_lines: 400,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 14,
            code_lines: 192,
        }
    }

    /// `equake` — earthquake wave propagation.
    pub(crate) fn equake() -> Self {
        Self {
            name: "equake",
            fastforward_mcycles: 21_538,
            paper_l2_transactions: 27_502_906,
            mem_per_instr: 0.29,
            store_frac: 0.03,
            ifetch_frac: 0.012,
            streaming_frac: 0.05,
            shared_frac: 0.56,
            shared_reuse: 0.42,
            hot_lines: 448,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 14,
            code_lines: 256,
        }
    }

    /// `fma3d` — crash simulation; the fewest L2 transactions.
    pub(crate) fn fma3d() -> Self {
        Self {
            name: "fma3d",
            fastforward_mcycles: 18_535,
            paper_l2_transactions: 12_599_496,
            mem_per_instr: 0.24,
            store_frac: 0.03,
            ifetch_frac: 0.015,
            streaming_frac: 0.03,
            shared_frac: 0.55,
            shared_reuse: 0.55,
            hot_lines: 384,
            footprint_lines: 1 << 11,
            shared_lines: 1 << 13,
            code_lines: 448,
        }
    }

    /// `galgel` — fluid dynamics; large resident set, moderate misses.
    pub fn galgel() -> Self {
        Self {
            name: "galgel",
            fastforward_mcycles: 3_665,
            paper_l2_transactions: 38_181_613,
            mem_per_instr: 0.3,
            store_frac: 0.04,
            ifetch_frac: 0.01,
            streaming_frac: 0.05,
            shared_frac: 0.58,
            shared_reuse: 0.38,
            hot_lines: 448,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 14,
            code_lines: 256,
        }
    }

    /// `mgrid` — multigrid solver; the most L2 transactions (heavy
    /// streaming, high L1 miss rate).
    pub fn mgrid() -> Self {
        Self {
            name: "mgrid",
            fastforward_mcycles: 3_533,
            paper_l2_transactions: 204_815_737,
            mem_per_instr: 0.36,
            store_frac: 0.1,
            ifetch_frac: 0.008,
            streaming_frac: 0.05,
            shared_frac: 0.8,
            shared_reuse: 0.05,
            hot_lines: 256,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 15,
            code_lines: 128,
        }
    }

    /// `swim` — shallow-water model; heavy streaming.
    pub fn swim() -> Self {
        Self {
            name: "swim",
            fastforward_mcycles: 4_306,
            paper_l2_transactions: 164_762_040,
            mem_per_instr: 0.35,
            store_frac: 0.1,
            ifetch_frac: 0.008,
            streaming_frac: 0.05,
            shared_frac: 0.78,
            shared_reuse: 0.08,
            hot_lines: 256,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 15,
            code_lines: 128,
        }
    }

    /// `wupwise` — quantum chromodynamics; high L2 traffic.
    pub fn wupwise() -> Self {
        Self {
            name: "wupwise",
            fastforward_mcycles: 18_777,
            paper_l2_transactions: 141_499_738,
            mem_per_instr: 0.33,
            store_frac: 0.09,
            ifetch_frac: 0.009,
            streaming_frac: 0.06,
            shared_frac: 0.72,
            shared_reuse: 0.15,
            hot_lines: 320,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 15,
            code_lines: 192,
        }
    }

    /// All nine benchmarks, in Table 5 order.
    pub fn all() -> Vec<Self> {
        vec![
            Self::ammp(),
            Self::apsi(),
            Self::art(),
            Self::equake(),
            Self::fma3d(),
            Self::galgel(),
            Self::mgrid(),
            Self::swim(),
            Self::wupwise(),
        ]
    }

    /// Looks a profile up by its Table 5 name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|p| p.name == name)
    }

    /// A small, fast synthetic profile for tests and examples.
    pub fn synthetic() -> Self {
        Self {
            name: "synthetic",
            fastforward_mcycles: 0,
            paper_l2_transactions: 0,
            mem_per_instr: 0.4,
            store_frac: 0.15,
            ifetch_frac: 0.01,
            streaming_frac: 0.5,
            shared_frac: 0.25,
            shared_reuse: 0.3,
            hot_lines: 128,
            footprint_lines: 1 << 12,
            shared_lines: 1 << 12,
            code_lines: 64,
        }
    }

    /// Sanity check on the probability parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (what, v) in [
            ("mem_per_instr", self.mem_per_instr),
            ("store_frac", self.store_frac),
            ("ifetch_frac", self.ifetch_frac),
            ("streaming_frac", self.streaming_frac),
            ("shared_frac", self.shared_frac),
            ("shared_reuse", self.shared_reuse),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{what} = {v} outside [0, 1]"));
            }
        }
        if self.mem_per_instr <= 0.0 {
            return Err("mem_per_instr must be positive".into());
        }
        if self.streaming_frac + self.shared_frac > 1.0 {
            return Err("streaming_frac + shared_frac exceed 1".into());
        }
        for (what, v) in [
            ("hot_lines", self.hot_lines),
            ("footprint_lines", self.footprint_lines),
            ("shared_lines", self.shared_lines),
            ("code_lines", self.code_lines),
        ] {
            if v == 0 {
                return Err(format!("{what} must be nonzero"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_is_reproduced_verbatim() {
        let names: Vec<&str> = BenchmarkProfile::all().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["ammp", "apsi", "art", "equake", "fma3d", "galgel", "mgrid", "swim", "wupwise"]
        );
        assert_eq!(BenchmarkProfile::mgrid().paper_l2_transactions, 204_815_737);
        assert_eq!(BenchmarkProfile::fma3d().fastforward_mcycles, 18_535);
        assert_eq!(BenchmarkProfile::equake().fastforward_mcycles, 21_538);
    }

    #[test]
    fn all_profiles_validate() {
        for p in BenchmarkProfile::all() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
        BenchmarkProfile::synthetic().validate().unwrap();
    }

    #[test]
    fn high_traffic_benchmarks_touch_more_non_resident_data() {
        // The paper's high-L2-traffic trio (mgrid, swim, wupwise) must
        // have the most aggressive L1-defeating profiles — large walked
        // shared arrays and dense memory operations are what create
        // their L1 miss rates and L2 transaction volumes (Table 5).
        let heavy = ["mgrid", "swim", "wupwise"];
        let all = BenchmarkProfile::all();
        let pressure = |p: &BenchmarkProfile| p.mem_per_instr * (p.shared_frac + p.streaming_frac);
        let min_heavy = all
            .iter()
            .filter(|p| heavy.contains(&p.name))
            .map(pressure)
            .fold(f64::INFINITY, f64::min);
        let max_light = all
            .iter()
            .filter(|p| !heavy.contains(&p.name))
            .map(pressure)
            .fold(0.0, f64::max);
        assert!(
            min_heavy > max_light,
            "heavy {min_heavy} must exceed light {max_light}"
        );
    }

    #[test]
    fn by_name_round_trips() {
        for p in BenchmarkProfile::all() {
            assert_eq!(BenchmarkProfile::by_name(p.name), Some(p));
        }
        assert_eq!(BenchmarkProfile::by_name("doom"), None);
    }
}
