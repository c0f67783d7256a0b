//! The eight SPECint95-like benchmark models.
//!
//! Each module builds a synthetic [`Program`] whose control-flow statistics
//! are calibrated to the paper's characterization of the corresponding
//! SPECint95 benchmark (Table 1 and Figures 1–8): the rough fraction of
//! branches and indirect jumps, the number of static indirect-jump sites,
//! the per-site target counts, and the history↔target correlation structure
//! that determines how predictable the jumps are:
//!
//! | Benchmark  | Modelled as | BTB indirect mispred (paper) |
//! |------------|-------------|------------------------------|
//! | `compress` | LZW coder: sticky hash-hit loop, near-monomorphic dispatch | low (~14%) |
//! | `gcc`      | many switch statements over IR node kinds; conditionals test the same value | 66.0% |
//! | `go`       | board evaluator: tactical dispatch with weakly-correlated data | ~38% |
//! | `ijpeg`    | DCT kernels: fixed-trip loops, skewed color-space dispatch | ~12% |
//! | `m88ksim`  | CPU simulator: decode switch over a sticky opcode stream | 37.3% |
//! | `perl`     | interpreter: dispatch driven by a repeating token cycle | 76.2% |
//! | `vortex`   | OO database: skewed virtual calls, deep call chains | ~12% |
//! | `xlisp`    | lisp eval: mostly-cons dispatch, recursive evaluation | ~11% |

mod compress;
mod gcc;
mod go;
mod ijpeg;
mod m88ksim;
mod perl;
mod vortex;
mod xlisp;

use crate::exec::Executor;
use crate::program::Program;
use sim_isa::VecTrace;
use std::fmt;

/// Version of the workload generators, recorded in every `.strc` header
/// and file name. Bump this whenever any change — to a benchmark model,
/// the executor, or the vendored RNG — alters the instructions a
/// `(benchmark, seed, budget)` triple generates, so a trace recorded by
/// an older generator is identifiable instead of silently wrong.
pub const GENERATOR_VERSION: u16 = 1;

/// A benchmark model: a program plus the seed and default trace length that
/// define its canonical run.
#[derive(Clone, Debug)]
pub struct Workload {
    name: &'static str,
    program: Program,
    seed: u64,
    default_budget: usize,
}

impl Workload {
    pub(crate) fn new(
        name: &'static str,
        program: Program,
        seed: u64,
        default_budget: usize,
    ) -> Self {
        Workload {
            name,
            program,
            seed,
            default_budget,
        }
    }

    /// The benchmark's name ("perl", "gcc", ...).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The underlying synthetic program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The canonical trace length used by the experiment harness.
    pub fn default_budget(&self) -> usize {
        self.default_budget
    }

    /// The canonical generator seed. Together with the program (named by
    /// the benchmark), the budget, and [`GENERATOR_VERSION`] this fully
    /// determines a generated trace — which is exactly the content
    /// address the `sim-trace` store caches under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Generates the first `budget` instructions of the canonical run.
    pub fn generate(&self, budget: usize) -> VecTrace {
        Executor::new(&self.program, self.seed).generate(budget)
    }

    /// Generates the canonical trace (`default_budget` instructions).
    pub fn generate_default(&self) -> VecTrace {
        self.generate(self.default_budget)
    }

    /// Generates a truncated canonical run: the first `fraction` of
    /// `budget` instructions (at least one — downstream statistics
    /// normalize by executed counts and an empty trace would leave them
    /// undefined). The prefix is bit-identical to the untruncated run's,
    /// so truncation degrades resolution, never determinism.
    pub fn generate_truncated(&self, budget: usize, fraction: f64) -> VecTrace {
        let kept = (budget as f64 * fraction.clamp(0.0, 1.0)) as usize;
        self.generate(kept.max(1))
    }

    /// Generates a trace with a different seed (for sensitivity studies).
    pub fn generate_seeded(&self, seed: u64, budget: usize) -> VecTrace {
        Executor::new(&self.program, seed).generate(budget)
    }
}

/// The SPECint95 benchmark suite.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Benchmark {
    /// 129.compress — LZW compression.
    Compress,
    /// 126.gcc — C compiler.
    Gcc,
    /// 099.go — go-playing program.
    Go,
    /// 132.ijpeg — JPEG codec.
    Ijpeg,
    /// 124.m88ksim — Motorola 88100 simulator.
    M88ksim,
    /// 134.perl — Perl interpreter.
    Perl,
    /// 147.vortex — object-oriented database.
    Vortex,
    /// 130.li (xlisp) — lisp interpreter.
    Xlisp,
}

impl Benchmark {
    /// All benchmarks, in the paper's Table 1 order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Compress,
        Benchmark::Gcc,
        Benchmark::Go,
        Benchmark::Ijpeg,
        Benchmark::M88ksim,
        Benchmark::Perl,
        Benchmark::Vortex,
        Benchmark::Xlisp,
    ];

    /// The two benchmarks the paper concentrates on ("the two benchmarks
    /// with the largest number of indirect jumps").
    pub const FOCUS: [Benchmark; 2] = [Benchmark::Gcc, Benchmark::Perl];

    /// The benchmark's name as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Compress => "compress",
            Benchmark::Gcc => "gcc",
            Benchmark::Go => "go",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::M88ksim => "m88ksim",
            Benchmark::Perl => "perl",
            Benchmark::Vortex => "vortex",
            Benchmark::Xlisp => "xlisp",
        }
    }

    /// The input data set named in the paper's Table 1 (documentary — this
    /// reproduction synthesizes the workload instead of running it).
    pub fn reference_input(self) -> &'static str {
        match self {
            Benchmark::Compress => "test.in",
            Benchmark::Gcc => "jump.i",
            Benchmark::Go => "2stone9.in (9 levels)",
            Benchmark::Ijpeg => "specmun.ppm (quality 50)",
            Benchmark::M88ksim => "dcrand.train.big",
            Benchmark::Perl => "scrabbl.pl",
            Benchmark::Vortex => "vortex.in",
            Benchmark::Xlisp => "train.lsp",
        }
    }

    /// Looks up a benchmark by its printed name.
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.iter().copied().find(|b| b.name() == name)
    }

    /// Builds the benchmark's workload model.
    pub fn workload(self) -> Workload {
        match self {
            Benchmark::Compress => compress::workload(),
            Benchmark::Gcc => gcc::workload(),
            Benchmark::Go => go::workload(),
            Benchmark::Ijpeg => ijpeg::workload(),
            Benchmark::M88ksim => m88ksim::workload(),
            Benchmark::Perl => perl::workload(),
            Benchmark::Vortex => vortex::workload(),
            Benchmark::Xlisp => xlisp::workload(),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_builds_and_generates() {
        for bench in Benchmark::ALL {
            let w = bench.workload();
            assert_eq!(w.name(), bench.name());
            let trace = w.generate(5_000);
            assert_eq!(trace.len(), 5_000, "{bench}");
            let stats = trace.stats();
            assert!(stats.branches() > 0, "{bench} has no branches");
        }
    }

    #[test]
    fn every_benchmark_has_indirect_jumps() {
        for bench in Benchmark::ALL {
            let stats = bench.workload().generate(50_000).stats();
            assert!(stats.indirect_jumps() > 0, "{bench} has no indirect jumps");
        }
    }

    #[test]
    fn traces_are_sequentially_consistent() {
        for bench in Benchmark::ALL {
            let trace = bench.workload().generate(30_000);
            let mut prev: Option<sim_isa::Addr> = None;
            for i in trace.iter() {
                if let Some(expected) = prev {
                    assert_eq!(i.pc(), expected, "{bench}: discontinuity at {i:?}");
                }
                prev = Some(i.next_pc());
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_benchmark() {
        for bench in [Benchmark::Perl, Benchmark::Gcc, Benchmark::Vortex] {
            let a = bench.workload().generate(20_000);
            let b = bench.workload().generate(20_000);
            assert_eq!(a, b, "{bench}");
        }
    }

    #[test]
    fn focus_benchmarks_have_the_most_indirect_jumps() {
        // gcc and perl are the paper's focus because they execute the most
        // indirect jumps; our models must preserve that ordering property
        // at least against the low-indirect benchmarks.
        let frac = |b: Benchmark| {
            let s = b.workload().generate(60_000).stats();
            s.indirect_jump_fraction()
        };
        let perl = frac(Benchmark::Perl);
        let gcc = frac(Benchmark::Gcc);
        let compress = frac(Benchmark::Compress);
        let ijpeg = frac(Benchmark::Ijpeg);
        assert!(perl > compress, "perl {perl} vs compress {compress}");
        assert!(gcc > compress, "gcc {gcc} vs compress {compress}");
        assert!(perl > ijpeg);
        assert!(gcc > ijpeg);
    }

    #[test]
    fn branch_fraction_is_plausible() {
        // SPECint branch fractions are roughly 10-30% of instructions.
        for bench in Benchmark::ALL {
            let s = bench.workload().generate(50_000).stats();
            let frac = s.branches() as f64 / s.instructions() as f64;
            assert!(
                (0.05..0.40).contains(&frac),
                "{bench}: branch fraction {frac} out of plausible range"
            );
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::Perl.to_string(), "perl");
        assert_eq!(Benchmark::M88ksim.to_string(), "m88ksim");
    }

    #[test]
    fn from_name_roundtrips() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(Benchmark::from_name("spice"), None);
    }
}
