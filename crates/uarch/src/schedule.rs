//! The second pass of the split timing engine: schedule a prepared trace
//! on one or more machines, in lockstep.
//!
//! A schedule needs two inputs per walk besides the [`PreparedTrace`]:
//! the machine's widths, window, function units and front-end depth, and
//! one bit per branch saying whether the walk's front end mispredicted
//! it. The bits come from a [`FrontEndPass`], a plain replay of the
//! walk's prediction harness over the trace, so one pass serves every
//! machine with that front end (and any functional request for it).
//!
//! [`schedule`] advances every walk of a batch by one instruction before
//! moving to the next: the prepared instruction is read once per batch,
//! and the walks' schedules, which do not depend on each other, overlap
//! in the host's out-of-order core. Each walk's result equals
//! [`crate::simulate`]'s on the same trace and machine, field for field.

use crate::config::MachineConfig;
use crate::prepare::{PrepareKey, PreparedTrace, BRANCH, LATENCY_MASK, READY_SLOTS, TAKEN};
use crate::report::SimReport;
use branch_predictors::BranchClassStats;
use sim_isa::DynInstr;
use target_cache::harness::PredictionHarness;

/// A front end's replay of a trace: its statistics, and for every branch
/// in trace order whether it was mispredicted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontEndPass {
    stats: BranchClassStats,
    mispredicted: Vec<u64>,
    branches: usize,
}

impl FrontEndPass {
    /// Replays `trace` through `harness`, recording each branch's
    /// outcome. The harness keeps its state and statistics, so the
    /// caller can read its target-cache statistics afterwards.
    pub fn replay<'a, I>(harness: &mut PredictionHarness, trace: I) -> FrontEndPass
    where
        I: IntoIterator<Item = &'a DynInstr>,
    {
        let mut mispredicted = Vec::new();
        let mut word = 0u64;
        let mut branches = 0usize;
        // Only branches reach the front end: skipping the rest here saves
        // a call into the harness per instruction.
        for instr in trace.into_iter().filter(|i| i.branch_exec().is_some()) {
            if let Some(outcome) = harness.process(instr) {
                word |= u64::from(!outcome.correct()) << (branches % 64);
                branches += 1;
                if branches.is_multiple_of(64) {
                    mispredicted.push(std::mem::take(&mut word));
                }
            }
        }
        // The last word is always pushed, partial or empty, so the
        // schedule can read the word of the branch after the last one.
        mispredicted.push(word);
        mispredicted.shrink_to_fit();
        FrontEndPass {
            stats: harness.stats().clone(),
            mispredicted,
            branches,
        }
    }

    /// The front end's per-class prediction statistics.
    pub fn stats(&self) -> &BranchClassStats {
        &self.stats
    }

    #[cfg(test)]
    fn mispredicted(&self, branch: usize) -> bool {
        self.mispredicted[branch / 64] >> (branch % 64) & 1 != 0
    }
}

/// Schedules `prepared` on every `(machine, front-end pass)` of `walks`
/// in lockstep and returns their reports in the same order. A batch of
/// one is a single walk.
///
/// # Panics
///
/// Panics if a machine is invalid ([`MachineConfig::check`]), was not
/// prepared for ([`PrepareKey::of`] differs from the trace's key), or a
/// pass replayed a different number of branches than the trace holds.
pub fn schedule(
    prepared: &PreparedTrace,
    walks: &[(&MachineConfig, &FrontEndPass)],
) -> Vec<SimReport> {
    let mut lanes: Vec<Lane> = walks
        .iter()
        .map(|&(machine, pass)| {
            machine
                .check()
                .expect("machine configuration must be valid");
            assert_eq!(
                &PrepareKey::of(machine),
                prepared.key(),
                "the trace was prepared for other latencies or another data cache"
            );
            assert_eq!(
                pass.branches,
                prepared.branches(),
                "the front-end pass replayed a different trace"
            );
            Lane::new(machine, pass)
        })
        .collect();
    let instrs = prepared.srcs.iter().zip(&prepared.dst).zip(&prepared.op);
    for ((&[a, b], &dst), &op) in instrs {
        let latency = prepared.latency[usize::from(op & LATENCY_MASK)];
        for lane in &mut lanes {
            lane.step(a, b, dst, op, latency);
        }
    }
    lanes
        .into_iter()
        .zip(walks)
        .map(|(lane, (_, pass))| SimReport {
            cycles: lane.last_retire,
            instructions: prepared.len() as u64,
            mispredict_stall_cycles: lane.stall,
            branch_stats: pass.stats.clone(),
            dcache_stats: prepared.dcache_stats(),
        })
        .collect()
}

/// One walk's schedule state: the reference engine's state, with the
/// function-unit heap as a sorted ring and the window as a ring.
struct Lane<'a> {
    /// The front end's outcomes, one bit per branch.
    mispredicted: &'a [u64],
    fetch_width: usize,
    retire_width: usize,
    front_depth: u64,
    /// Next branch's index into `mispredicted`.
    branch: usize,
    /// Cycle each register slot's latest value is available.
    reg_ready: [u64; READY_SLOTS],
    /// Next-free cycle of each function unit, ascending from `fu_head`
    /// around the ring.
    fu_free: Box<[u64]>,
    fu_head: usize,
    /// For each of the last `window_size` instructions, one past its
    /// retire cycle (0 before the window first fills): the cycle the
    /// instruction `window_size` younger can take its slot.
    window: Box<[u64]>,
    window_slot: usize,
    stream_cycle: u64,
    fetched_this_cycle: usize,
    last_retire: u64,
    retired_in_cycle: usize,
    stall: u64,
}

impl<'a> Lane<'a> {
    fn new(machine: &MachineConfig, pass: &'a FrontEndPass) -> Lane<'a> {
        Lane {
            mispredicted: &pass.mispredicted,
            fetch_width: machine.fetch_width,
            retire_width: machine.retire_width,
            front_depth: u64::from(machine.front_depth),
            branch: 0,
            reg_ready: [0; READY_SLOTS],
            fu_free: vec![0; machine.fu_count].into_boxed_slice(),
            fu_head: 0,
            window: vec![0; machine.window_size].into_boxed_slice(),
            window_slot: 0,
            stream_cycle: 0,
            fetched_this_cycle: 0,
            last_retire: 0,
            retired_in_cycle: 0,
            stall: 0,
        }
    }

    /// Schedules one instruction: register slots `a`, `b` and `dst`,
    /// flags `op`, execution `latency`. The steps mirror
    /// [`crate::simulate`]'s loop one for one.
    #[inline(always)]
    fn step(&mut self, a: u8, b: u8, dst: u8, op: u8, latency: u64) {
        // --- Fetch -------------------------------------------------------
        let window_barrier = self.window[self.window_slot];
        if window_barrier > self.stream_cycle {
            self.stream_cycle = window_barrier;
            self.fetched_this_cycle = 0;
        }
        if self.fetched_this_cycle == self.fetch_width {
            self.stream_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        let fetch_cycle = self.stream_cycle;
        self.fetched_this_cycle += 1;

        // --- Execute -----------------------------------------------------
        let decode_done = fetch_cycle + self.front_depth;
        let operands_ready = self.reg_ready[usize::from(a) % READY_SLOTS]
            .max(self.reg_ready[usize::from(b) % READY_SLOTS]);
        let start = decode_done
            .max(operands_ready)
            .max(self.fu_free[self.fu_head]);
        self.take_earliest_fu(start + 1);
        let complete = start + latency;
        self.reg_ready[usize::from(dst) % READY_SLOTS] = complete;

        // --- Branch resolution -------------------------------------------
        if op & BRANCH != 0 {
            let branch = self.branch;
            self.branch += 1;
            if self.mispredicted[branch / 64] >> (branch % 64) & 1 != 0 {
                // Checkpoint repair: correct-path fetch resumes the cycle
                // after the branch executes.
                std::hint::cold_path();
                let resume = complete + 1;
                if resume > self.stream_cycle {
                    self.stall += resume - self.stream_cycle - 1;
                    self.stream_cycle = resume;
                    self.fetched_this_cycle = 0;
                }
            } else if op & TAKEN != 0 {
                // A correctly predicted taken branch ends its fetch group.
                self.stream_cycle = fetch_cycle + 1;
                self.fetched_this_cycle = 0;
            }
        }

        // --- Retire ------------------------------------------------------
        let mut retire_cycle = (complete + 1).max(self.last_retire);
        if retire_cycle == self.last_retire && self.retired_in_cycle == self.retire_width {
            retire_cycle += 1;
        }
        if retire_cycle > self.last_retire {
            self.last_retire = retire_cycle;
            self.retired_in_cycle = 0;
        }
        self.retired_in_cycle += 1;
        self.window[self.window_slot] = retire_cycle + 1;
        self.window_slot += 1;
        if self.window_slot == self.window.len() {
            self.window_slot = 0;
        }
    }

    /// Replaces the earliest function-unit free cycle (at `fu_head`) by
    /// `free`, which is no earlier, keeping the ring sorted. Usually
    /// `free` is the latest, and the ring just turns: the head's slot
    /// becomes the tail.
    #[inline(always)]
    fn take_earliest_fu(&mut self, free: u64) {
        let units = self.fu_free.len();
        let ring = |i: usize| if i >= units { i - units } else { i };
        let head = self.fu_head;
        let new_head = ring(head + 1);
        let mut slot = head;
        let mut before = ring(head + units - 1);
        if self.fu_free[before] > free {
            // An instruction issuing before an older one: insert it in
            // order, moving the later free cycles back one slot.
            std::hint::cold_path();
            while slot != new_head && self.fu_free[before] > free {
                self.fu_free[slot] = self.fu_free[before];
                slot = before;
                before = ring(before + units - 1);
            }
        }
        self.fu_free[slot] = free;
        self.fu_head = new_head;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, simulate};
    use target_cache::harness::FrontEndConfig;
    use target_cache::TargetCacheConfig;

    fn pass(trace: &sim_isa::VecTrace, frontend: FrontEndConfig) -> FrontEndPass {
        FrontEndPass::replay(&mut PredictionHarness::new(frontend), trace)
    }

    #[test]
    fn one_walk_equals_the_reference_engine() {
        let trace = sim_workloads::Benchmark::Perl.workload().generate(30_000);
        let machine = MachineConfig::isca97(FrontEndConfig::isca97_with(
            TargetCacheConfig::isca97_tagless_gshare(),
        ));
        let prepared = prepare(&trace, &machine);
        let fe = pass(&trace, machine.frontend);
        let split = schedule(&prepared, &[(&machine, &fe)]);
        assert_eq!(split, vec![simulate(&trace, &machine)]);
    }

    #[test]
    fn a_pass_records_one_outcome_per_branch() {
        let trace = sim_workloads::Benchmark::Gcc.workload().generate(10_000);
        let fe = pass(&trace, FrontEndConfig::isca97_baseline());
        assert_eq!(fe.branches as u64, trace.stats().branches());
        let mispredicted = (0..fe.branches).filter(|&b| fe.mispredicted(b)).count();
        assert_eq!(mispredicted as u64, fe.stats().total_mispredicted());
    }

    #[test]
    fn an_empty_trace_schedules_to_zero() {
        let trace = sim_isa::VecTrace::new();
        let machine = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        let fe = pass(&trace, machine.frontend);
        let r = schedule(&prepare(&trace, &machine), &[(&machine, &fe)]);
        assert_eq!(r, vec![simulate(&trace, &machine)]);
    }

    #[test]
    #[should_panic(expected = "prepared for other latencies")]
    fn a_machine_with_another_data_cache_is_refused() {
        let trace = sim_workloads::Benchmark::Go.workload().generate(1_000);
        let machine = MachineConfig::isca97(FrontEndConfig::isca97_baseline());
        let prepared = prepare(&trace, &machine);
        let mut other = machine.clone();
        other.dcache.miss_penalty += 1;
        let fe = pass(&trace, machine.frontend);
        schedule(&prepared, &[(&other, &fe)]);
    }
}
