//! Machine configuration: the paper's Table 3 latencies and HPS machine
//! parameters.

use sim_isa::InstrClass;
use target_cache::harness::FrontEndConfig;

/// Data cache geometry and timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DCacheConfig {
    /// Total capacity in bytes (the paper simulates a 16 KB data cache).
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Ways per set.
    pub assoc: usize,
    /// Extra cycles added to a load that misses ("latency for fetching
    /// data from memory is 10 cycles").
    pub miss_penalty: u32,
}

impl DCacheConfig {
    /// The paper's data cache: 16 KB; line size and associativity are not
    /// stated, so we use era-typical values (32-byte lines, 4-way).
    pub fn isca97() -> Self {
        DCacheConfig {
            size_bytes: 16 * 1024,
            line_bytes: 32,
            assoc: 4,
            miss_penalty: 10,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a power-of-two set count.
    pub fn sets(&self) -> usize {
        let sets = self.size_bytes / (self.line_bytes * self.assoc);
        assert!(
            sets.is_power_of_two() && sets >= 1,
            "cache sets must be a power of two"
        );
        sets
    }
}

/// Full machine configuration for the timing model.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MachineConfig {
    /// Instructions fetched per cycle (stops at a taken branch).
    pub fetch_width: usize,
    /// Instructions retired per cycle.
    pub retire_width: usize,
    /// Maximum instructions in flight ("the maximum number of instructions
    /// that can exist in the machine at one time").
    pub window_size: usize,
    /// Number of universal function units ("each functional unit can
    /// execute instructions from any of the instruction classes").
    pub fu_count: usize,
    /// Pipeline stages between fetch and earliest execute (decode/rename).
    pub front_depth: u32,
    /// Execution latency per instruction class (Table 3).
    pub latencies: [u32; 8],
    /// Data cache.
    pub dcache: DCacheConfig,
    /// Front-end predictors (BTB, direction predictor, RAS, target cache).
    pub frontend: FrontEndConfig,
}

impl MachineConfig {
    /// The paper's HPS configuration with the given front end.
    ///
    /// Table 3 latencies: integer/store/bit-field/branch 1 cycle, FP add 3,
    /// multiply 3, divide 8, load 2 (plus the miss penalty). Width and
    /// window values follow the paper where legible (wide issue, perfect
    /// I-cache, 16 KB D-cache) and era-standard HPS values elsewhere
    /// (8-wide, 32 in flight), recorded in EXPERIMENTS.md.
    pub fn isca97(frontend: FrontEndConfig) -> Self {
        let mut latencies = [1u32; 8];
        latencies[InstrClass::FpAdd.index()] = 3;
        latencies[InstrClass::Mul.index()] = 3;
        latencies[InstrClass::Div.index()] = 8;
        latencies[InstrClass::Load.index()] = 2;
        MachineConfig {
            fetch_width: 8,
            retire_width: 8,
            window_size: 32,
            fu_count: 8,
            front_depth: 2,
            latencies,
            dcache: DCacheConfig::isca97(),
            frontend,
        }
    }

    /// The execution latency of an instruction class.
    pub fn latency(&self, class: InstrClass) -> u32 {
        self.latencies[class.index()]
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter (zero widths,
    /// zero window, zero-latency classes).
    pub fn check(&self) -> Result<(), String> {
        if self.fetch_width == 0 || self.retire_width == 0 {
            return Err("fetch and retire width must be nonzero".into());
        }
        if self.window_size == 0 {
            return Err("window size must be nonzero".into());
        }
        if self.fu_count == 0 {
            return Err("machine needs at least one function unit".into());
        }
        if self.latencies.contains(&0) {
            return Err("instruction latencies must be nonzero".into());
        }
        self.dcache.sets(); // panics on malformed geometry
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca97_latencies_match_table3() {
        let c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        assert_eq!(c.latency(InstrClass::Integer), 1);
        assert_eq!(c.latency(InstrClass::FpAdd), 3);
        assert_eq!(c.latency(InstrClass::Mul), 3);
        assert_eq!(c.latency(InstrClass::Div), 8);
        assert_eq!(c.latency(InstrClass::Load), 2);
        assert_eq!(c.latency(InstrClass::Store), 1);
        assert_eq!(c.latency(InstrClass::BitField), 1);
        assert_eq!(c.latency(InstrClass::Branch), 1);
    }

    #[test]
    fn isca97_machine_shape() {
        let c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.window_size, 32);
        assert!(c.check().is_ok());
    }

    #[test]
    fn dcache_geometry() {
        let d = DCacheConfig::isca97();
        assert_eq!(d.sets(), 128);
        assert_eq!(d.miss_penalty, 10);
    }

    #[test]
    fn check_rejects_broken_configs() {
        let mut c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        c.fetch_width = 0;
        assert!(c.check().is_err());
        let mut c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        c.window_size = 0;
        assert!(c.check().is_err());
        let mut c = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        c.latencies[0] = 0;
        assert!(c.check().is_err());
    }
}
