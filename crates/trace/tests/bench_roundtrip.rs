//! Round-trip identity over the real workload generators: for every
//! benchmark, encoding the generated trace and decoding it back yields
//! the identical instruction sequence, statistics, and BBV fingerprints.

use sim_trace::{encode_to_vec, fingerprint_trace, StatsSummary, TraceMeta, TraceReader};
use sim_workloads::{Benchmark, GENERATOR_VERSION};

#[test]
fn every_benchmark_roundtrips_identically() {
    const BUDGET: usize = 20_000;
    for bench in Benchmark::ALL {
        let workload = bench.workload();
        let trace = workload.generate(BUDGET);
        let stats = trace.stats();
        let meta = TraceMeta {
            benchmark: bench.name().to_string(),
            scale: "test".to_string(),
            seed: workload.seed(),
            generator_version: GENERATOR_VERSION,
        };
        let bytes = encode_to_vec(meta, &trace).expect("encode");
        let reader = TraceReader::new(bytes.as_slice()).expect("header");
        assert_eq!(reader.header().instructions, BUDGET as u64, "{bench}");
        assert_eq!(reader.header().summary, StatsSummary::of(&stats), "{bench}");
        let decoded = reader.read_to_end().expect("decode");
        assert_eq!(decoded, trace, "{bench}: decoded trace differs");
        assert_eq!(decoded.stats(), stats, "{bench}: stats differ");
        // The format stays compact on real workloads: well under the
        // ~50 bytes a naive struct dump would take per instruction.
        let density = bytes.len() as f64 / BUDGET as f64;
        assert!(density < 16.0, "{bench}: {density:.2} bytes/instr");
    }
}

/// The BBV side-section the writer appends must equal the in-memory
/// fingerprints chunk for chunk, for every benchmark: campaigns cluster
/// [`sim_trace::fingerprint_trace`] output, while `simpoint-pack
/// cluster <file.strc>` clusters the recorded section, and the two
/// phase maps agree only if the fingerprints do.
#[test]
fn every_benchmark_side_section_matches_in_memory_fingerprints() {
    const BUDGET: usize = 100_000;
    for bench in Benchmark::ALL {
        let workload = bench.workload();
        let trace = workload.generate(BUDGET);
        let meta = TraceMeta {
            benchmark: bench.name().to_string(),
            scale: "test".to_string(),
            seed: workload.seed(),
            generator_version: GENERATOR_VERSION,
        };
        let bytes = encode_to_vec(meta, &trace).expect("encode");
        let reader = TraceReader::new(bytes.as_slice()).expect("header");
        let (decoded, recorded) = reader.read_to_end_with_bbv().expect("decode");
        assert_eq!(decoded.len(), BUDGET, "{bench}");
        let recorded = recorded.unwrap_or_else(|| panic!("{bench}: no BBV side-section"));
        let in_memory = fingerprint_trace(&trace);
        assert_eq!(
            recorded.chunks.len(),
            in_memory.chunks.len(),
            "{bench}: chunk count"
        );
        for (i, (r, m)) in recorded.chunks.iter().zip(&in_memory.chunks).enumerate() {
            assert_eq!(r, m, "{bench}: chunk {i} fingerprint differs");
        }
    }
}
