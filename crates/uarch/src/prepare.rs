//! The first pass of the split timing engine: a trace's
//! configuration-independent timing inputs, computed once.
//!
//! The engine is trace-driven and never fetches a wrong path, so every
//! timing walk of a trace sees the same register operands, the same
//! instruction classes and the same data-cache address sequence. Per-load
//! hit or miss is therefore a pure function of the trace and the
//! [`DCacheConfig`], and the latency of every instruction a pure function
//! of the trace, the class latencies and the data cache. [`prepare`]
//! computes them once into a [`PreparedTrace`]; the schedule pass
//! ([`crate::schedule`]) then needs only the machine's widths and the
//! front end's per-branch outcomes.

use crate::config::{DCacheConfig, MachineConfig};
use crate::dcache::{DCacheStats, DataCache};
use sim_isa::reg::REG_COUNT;
use sim_isa::{DynInstr, InstrClass};

/// The register slot a missing source operand reads: never written, so
/// always ready at cycle 0.
pub(crate) const NO_SRC: u8 = REG_COUNT as u8;
/// The register slot a missing destination writes: never read.
pub(crate) const NO_DST: u8 = REG_COUNT as u8 + 1;
/// Ready-time slots a schedule keeps: the architectural registers,
/// [`NO_SRC`] and [`NO_DST`], rounded up to a power of two so a slot
/// index needs a mask rather than a bounds check.
pub(crate) const READY_SLOTS: usize = (REG_COUNT as usize + 2).next_power_of_two();

/// `op` bits 0–3: the index into [`PreparedTrace::latency`] (the class
/// index, plus 8 for a load that misses the data cache).
pub(crate) const LATENCY_MASK: u8 = 0x0f;
const MISS: u8 = 0x08;
/// `op` bit 4: the instruction is a branch (the front end predicts it).
pub(crate) const BRANCH: u8 = 0x10;
/// `op` bit 5: the branch was taken.
pub(crate) const TAKEN: u8 = 0x20;

/// What a prepared trace depends on besides the trace: the class
/// latencies and the data cache. Machines that agree on it share one
/// [`PreparedTrace`], whatever their widths, window and front end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PrepareKey {
    /// Execution latency per instruction class.
    pub latencies: [u32; 8],
    /// Data cache geometry and miss penalty.
    pub dcache: DCacheConfig,
}

impl PrepareKey {
    /// The part of `machine` a prepared trace depends on.
    pub fn of(machine: &MachineConfig) -> PrepareKey {
        PrepareKey {
            latencies: machine.latencies,
            dcache: machine.dcache,
        }
    }
}

/// A trace's timing inputs in struct-of-arrays form, 4 bytes per
/// instruction: two source register slots, one destination slot, and an
/// `op` byte holding a latency code and the branch/taken flags.
///
/// Latencies are not stored per instruction: the code indexes a 16-entry
/// table of `u64` cycles (class latency, plus the miss penalty for a
/// missing load), so every latency [`MachineConfig::check`] accepts is
/// represented exactly.
#[derive(Clone, Debug)]
pub struct PreparedTrace {
    key: PrepareKey,
    pub(crate) srcs: Vec<[u8; 2]>,
    pub(crate) dst: Vec<u8>,
    pub(crate) op: Vec<u8>,
    pub(crate) latency: [u64; 16],
    branches: usize,
    dcache_stats: DCacheStats,
}

impl PreparedTrace {
    /// The latencies and data cache this trace was prepared for.
    pub fn key(&self) -> &PrepareKey {
        &self.key
    }

    /// Instructions in the trace.
    pub fn len(&self) -> usize {
        self.op.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.op.is_empty()
    }

    /// Branches in the trace: the length a front end's outcome record
    /// must have.
    pub(crate) fn branches(&self) -> usize {
        self.branches
    }

    /// The data cache's statistics over the whole trace.
    pub fn dcache_stats(&self) -> DCacheStats {
        self.dcache_stats
    }
}

/// Prepares a trace for scheduling on machines with `machine`'s class
/// latencies and data cache ([`PrepareKey::of`]): runs the data cache
/// over the trace's memory accesses once and records each instruction's
/// operands, latency code and branch flags.
///
/// # Panics
///
/// Panics if the machine configuration is invalid
/// ([`MachineConfig::check`]).
pub fn prepare<'a, I>(trace: I, machine: &MachineConfig) -> PreparedTrace
where
    I: IntoIterator<Item = &'a DynInstr>,
{
    machine
        .check()
        .expect("machine configuration must be valid");
    let key = PrepareKey::of(machine);
    let mut latency = [0u64; 16];
    for class in InstrClass::ALL {
        let cycles = u64::from(machine.latency(class));
        latency[class.index()] = cycles;
        latency[class.index() | usize::from(MISS)] = cycles + u64::from(key.dcache.miss_penalty);
    }
    let trace = trace.into_iter();
    let (len, _) = trace.size_hint();
    let mut prepared = PreparedTrace {
        key,
        srcs: Vec::with_capacity(len),
        dst: Vec::with_capacity(len),
        op: Vec::with_capacity(len),
        latency,
        branches: 0,
        dcache_stats: DCacheStats::default(),
    };
    let mut dcache = DataCache::new(key.dcache);
    let slot = |reg: Option<sim_isa::Reg>, none: u8| reg.map_or(none, |r| r.index() as u8);
    for instr in trace {
        let [a, b] = instr.srcs();
        prepared.srcs.push([slot(a, NO_SRC), slot(b, NO_SRC)]);
        prepared.dst.push(slot(instr.dst(), NO_DST));
        let mut op = instr.class().index() as u8;
        if let Some(mem) = instr.mem() {
            let hit = dcache.access(mem.addr);
            if instr.class() == InstrClass::Load && !hit {
                op |= MISS;
            }
        }
        if let Some(branch) = instr.branch_exec() {
            prepared.branches += 1;
            op |= BRANCH;
            if branch.taken {
                op |= TAKEN;
            }
        }
        prepared.op.push(op);
    }
    prepared.dcache_stats = dcache.stats();
    prepared
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Addr, BranchClass, BranchExec, Reg, VecTrace};
    use target_cache::harness::FrontEndConfig;

    fn machine() -> MachineConfig {
        MachineConfig::isca97(FrontEndConfig::isca97_baseline())
    }

    #[test]
    fn prepared_trace_is_four_bytes_per_instruction() {
        let trace = sim_workloads::Benchmark::Gcc.workload().generate(20_000);
        let prepared = prepare(&trace, &machine());
        assert_eq!(prepared.len(), trace.len());
        let heap_bytes =
            prepared.srcs.capacity() * 2 + prepared.dst.capacity() + prepared.op.capacity();
        assert!(
            heap_bytes <= 4 * trace.len(),
            "{heap_bytes} bytes for {} instructions",
            trace.len()
        );
        assert_eq!(prepared.branches(), trace.stats().branches() as usize);
    }

    #[test]
    fn operands_latencies_and_flags_are_encoded() {
        let pc = Addr::from_word_index;
        let trace: VecTrace = [
            DynInstr::op(pc(0), InstrClass::Div)
                .with_srcs(Some(Reg::new(3)), None)
                .with_dst(Reg::new(4)),
            DynInstr::load(pc(1), 0x40),
            DynInstr::load(pc(2), 0x48),
            DynInstr::branch(pc(3), BranchExec::taken(BranchClass::IndirectJump, pc(100))),
        ]
        .into_iter()
        .collect();
        let mut m = machine();
        m.latencies[InstrClass::Load.index()] = u32::MAX;
        m.dcache.miss_penalty = u32::MAX;
        let p = prepare(&trace, &m);
        assert_eq!(p.srcs[0], [3, NO_SRC]);
        assert_eq!(p.dst[0], 4);
        assert_eq!(p.dst[1], NO_DST);
        let latency = |i: usize| p.latency[usize::from(p.op[i] & LATENCY_MASK)];
        assert_eq!(latency(0), 8);
        assert_eq!(
            latency(1),
            2 * u64::from(u32::MAX),
            "a miss adds the penalty"
        );
        assert_eq!(latency(2), u64::from(u32::MAX), "same line: a hit");
        assert_eq!(p.op[3] & (BRANCH | TAKEN), BRANCH | TAKEN);
        assert_eq!(p.branches(), 1);
        assert_eq!(p.dcache_stats().accesses, 2);
        assert_eq!(p.dcache_stats().hits, 1);
    }
}
