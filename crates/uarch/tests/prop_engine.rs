//! Property-based tests for the timing engine: scheduling invariants that
//! must hold for *any* trace, not just the workloads', and the split
//! engine's equality with the reference engine on any trace and machine.

use hps_uarch::{prepare, schedule, simulate, DCacheConfig, FrontEndPass, MachineConfig};
use proptest::prelude::*;
use sim_isa::{Addr, BranchClass, BranchExec, DynInstr, InstrClass, Reg, VecTrace};
use target_cache::harness::{FrontEndConfig, PredictionHarness};
use target_cache::TargetCacheConfig;

fn machine() -> MachineConfig {
    MachineConfig::isca97(FrontEndConfig::isca97_baseline())
}

/// An arbitrary instruction with a consistent next-pc chain left to the
/// caller (prediction correctness is irrelevant to these invariants, and
/// the engine never requires path consistency).
fn arb_instr() -> impl Strategy<Value = DynInstr> {
    arb_instr_in(u64::MAX)
}

/// [`arb_instr`] with memory addresses masked by `mem_mask`: a small
/// address space makes a small data cache both hit and miss.
fn arb_instr_in(mem_mask: u64) -> impl Strategy<Value = DynInstr> {
    let reg = proptest::option::of(0u16..32).prop_map(|r| r.map(Reg::new));
    (
        0u64..4096,
        0u8..10,
        any::<u64>(),
        reg.clone(),
        reg.clone(),
        reg,
        any::<bool>(),
    )
        .prop_map(move |(pc, kind, payload, a, b, d, taken)| {
            let pc = Addr::from_word_index(pc);
            match kind {
                0..=3 => {
                    let class = [
                        InstrClass::Integer,
                        InstrClass::Mul,
                        InstrClass::Div,
                        InstrClass::BitField,
                    ][kind as usize];
                    let mut i = DynInstr::op(pc, class).with_srcs(a, b);
                    if let Some(d) = d {
                        i = i.with_dst(d);
                    }
                    i
                }
                4 | 5 => {
                    let mut i = if kind == 4 {
                        DynInstr::load(pc, payload & mem_mask)
                    } else {
                        DynInstr::store(pc, payload & mem_mask)
                    };
                    if let (4, Some(d)) = (kind, d) {
                        i = i.with_dst(d);
                    }
                    i
                }
                _ => {
                    let classes = [
                        BranchClass::CondDirect,
                        BranchClass::UncondDirect,
                        BranchClass::Call,
                        BranchClass::Return,
                        BranchClass::IndirectJump,
                    ];
                    let class = classes[(kind - 6) as usize % classes.len()];
                    let taken = taken || !class.is_conditional();
                    let target = Addr::from_word_index(payload % 4096 + 5000);
                    DynInstr::branch(pc, BranchExec::new(class, taken, target))
                }
            }
        })
}

/// A front end from the paper's design space.
fn arb_frontend() -> impl Strategy<Value = FrontEndConfig> {
    prop::sample::select(vec![
        FrontEndConfig::isca97_baseline(),
        FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagless_gshare()),
        FrontEndConfig::isca97_with(TargetCacheConfig::isca97_tagged(4)),
        FrontEndConfig::isca97_oracle(),
    ])
}

/// The class latencies and data cache of a machine: Table 3 and the
/// paper's cache, or latencies up to `u32::MAX` and caches down to one
/// line per set.
fn arb_core() -> impl Strategy<Value = ([u32; 8], DCacheConfig)> {
    let latency = prop::sample::select(vec![1u32, 2, 3, 8, 255, 256, 1000, u32::MAX]);
    let latencies = proptest::collection::vec(latency, 8..9).prop_map(|v| {
        let mut l = [0u32; 8];
        l.copy_from_slice(&v);
        l
    });
    let dcache = (
        prop::sample::select(vec![16usize, 32]),
        prop::sample::select(vec![1usize, 2]),
        prop::sample::select(vec![1usize, 2, 4]),
        prop::sample::select(vec![0u32, 10, 300, u32::MAX]),
    )
        .prop_map(|(line_bytes, assoc, sets, miss_penalty)| DCacheConfig {
            size_bytes: line_bytes * assoc * sets,
            line_bytes,
            assoc,
            miss_penalty,
        });
    prop_oneof![
        Just((
            MachineConfig::isca97(FrontEndConfig::isca97_baseline()).latencies,
            DCacheConfig::isca97()
        )),
        (latencies, dcache),
    ]
}

/// A valid machine with the given core: widths 1–16, a window down to
/// one instruction, down to one function unit, any front end.
fn arb_machine_with(
    (latencies, dcache): ([u32; 8], DCacheConfig),
) -> impl Strategy<Value = MachineConfig> {
    let small = |max: usize| prop_oneof![Just(1usize), 1..max + 1, prop::sample::select(vec![max])];
    (
        small(16),
        small(16),
        small(64),
        small(16),
        0u32..7,
        arb_frontend(),
    )
        .prop_map(
            move |(fetch_width, retire_width, window_size, fu_count, front_depth, frontend)| {
                MachineConfig {
                    fetch_width,
                    retire_width,
                    window_size,
                    fu_count,
                    front_depth,
                    latencies,
                    dcache,
                    frontend,
                }
            },
        )
}

fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    arb_core().prop_flat_map(arb_machine_with)
}

/// Up to 600 instructions whose loads and stores touch 1 KB.
fn arb_trace() -> impl Strategy<Value = VecTrace> {
    proptest::collection::vec(arb_instr_in(0x3ff), 0..600)
        .prop_map(|instrs| instrs.into_iter().collect())
}

/// The split engine's walk of `machine`: prepare, replay, schedule.
fn split(trace: &VecTrace, machine: &MachineConfig) -> hps_uarch::SimReport {
    let pass = FrontEndPass::replay(&mut PredictionHarness::new(machine.frontend), trace);
    let mut reports = schedule(&prepare(trace, machine), &[(machine, &pass)]);
    reports.pop().expect("one report per walk")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn split_engine_equals_the_reference_engine(trace in arb_trace(), machine in arb_machine()) {
        prop_assert_eq!(split(&trace, &machine), simulate(&trace, &machine));
    }

    #[test]
    fn a_lockstep_batch_equals_its_single_walks(
        trace in arb_trace(),
        machines in arb_core().prop_flat_map(|core| proptest::collection::vec(arb_machine_with(core), 1..12)),
    ) {
        let prepared = prepare(&trace, &machines[0]);
        let passes: Vec<FrontEndPass> = machines
            .iter()
            .map(|m| FrontEndPass::replay(&mut PredictionHarness::new(m.frontend), &trace))
            .collect();
        let walks: Vec<_> = machines.iter().zip(&passes).collect();
        let batch = schedule(&prepared, &walks);
        prop_assert_eq!(batch.len(), machines.len());
        for (machine, report) in machines.iter().zip(&batch) {
            prop_assert_eq!(report, &split(&trace, machine));
            prop_assert_eq!(report, &simulate(&trace, machine));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ipc_respects_machine_bounds(instrs in proptest::collection::vec(arb_instr(), 1..600)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let r = simulate(&trace, &machine());
        prop_assert_eq!(r.instructions, trace.len() as u64);
        prop_assert!(r.cycles >= 1);
        prop_assert!(r.ipc() <= 8.0 + 1e-9, "IPC {} exceeds machine width", r.ipc());
        // Every instruction takes at least front_depth + latency + 1 to
        // retire, so cycles >= that of the last instruction alone.
        prop_assert!(r.cycles >= 4, "cycles {} impossibly small", r.cycles);
    }

    #[test]
    fn stall_cycles_never_exceed_total(instrs in proptest::collection::vec(arb_instr(), 1..600)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let r = simulate(&trace, &machine());
        prop_assert!(r.mispredict_stall_cycles <= r.cycles);
        prop_assert!((0.0..=1.0).contains(&r.mispredict_stall_fraction()));
    }

    #[test]
    fn bigger_windows_never_slow_the_machine(instrs in proptest::collection::vec(arb_instr(), 1..400)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let mut small = machine();
        small.window_size = 8;
        let mut big = machine();
        big.window_size = 128;
        let r_small = simulate(&trace, &small);
        let r_big = simulate(&trace, &big);
        prop_assert!(
            r_big.cycles <= r_small.cycles,
            "window 128 took {} cycles vs window 8's {}",
            r_big.cycles,
            r_small.cycles
        );
    }

    #[test]
    fn more_fus_never_slow_the_machine(instrs in proptest::collection::vec(arb_instr(), 1..400)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let mut few = machine();
        few.fu_count = 2;
        let r_few = simulate(&trace, &few);
        let r_many = simulate(&trace, &machine());
        prop_assert!(r_many.cycles <= r_few.cycles);
    }

    #[test]
    fn simulation_is_deterministic_for_any_trace(instrs in proptest::collection::vec(arb_instr(), 1..300)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let a = simulate(&trace, &machine());
        let b = simulate(&trace, &machine());
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.mispredict_stall_cycles, b.mispredict_stall_cycles);
        prop_assert_eq!(a.branch_stats, b.branch_stats);
        prop_assert_eq!(a.dcache_stats, b.dcache_stats);
    }

    #[test]
    fn oracle_never_loses_to_the_baseline(instrs in proptest::collection::vec(arb_instr(), 1..300)) {
        let trace: VecTrace = instrs.into_iter().collect();
        let base = simulate(&trace, &machine());
        let oracle = simulate(&trace, &MachineConfig::isca97(FrontEndConfig::isca97_oracle()));
        prop_assert!(
            oracle.cycles <= base.cycles,
            "oracle {} cycles vs baseline {}",
            oracle.cycles,
            base.cycles
        );
    }
}
