//! Property-based tests for phase clustering.
//!
//! Every sampled run recomputes its phase map from the trace, and a map
//! written by `simpoint-pack cluster` must be the one a run computes —
//! so determinism is load-bearing, not cosmetic.

use proptest::prelude::*;
use sim_trace::ChunkFingerprint;
use simpoint::{cluster, recombine, ClusterConfig, PhaseMap, SliceStats};
use std::collections::BTreeMap;

/// An arbitrary chunk fingerprint: 1..12 blocks with small ids and
/// positive counts, sorted and deduplicated by block id as the format
/// requires.
fn arb_fingerprint() -> impl Strategy<Value = ChunkFingerprint> {
    proptest::collection::vec((0u64..64, 1u64..5000), 1..12).prop_map(|pairs| {
        let mut blocks: BTreeMap<u64, u64> = BTreeMap::new();
        for (b, c) in pairs {
            *blocks.entry(b).or_insert(0) += c;
        }
        ChunkFingerprint {
            blocks: blocks.into_iter().collect(),
        }
    })
}

proptest! {
    #[test]
    fn clustering_is_deterministic(
        bbvs in proptest::collection::vec(arb_fingerprint(), 1..40),
        seed in any::<u64>(),
    ) {
        let cfg = ClusterConfig { seed, ..ClusterConfig::default() };
        let a = cluster(&bbvs, &cfg);
        let b = cluster(&bbvs, &cfg);
        prop_assert_eq!(a, b, "same seed + same BBVs must give identical phase maps");
    }

    #[test]
    fn phase_maps_are_well_formed(
        bbvs in proptest::collection::vec(arb_fingerprint(), 1..40),
        seed in any::<u64>(),
    ) {
        let cfg = ClusterConfig { seed, ..ClusterConfig::default() };
        let map = cluster(&bbvs, &cfg);
        prop_assert_eq!(map.chunks as usize, bbvs.len());
        prop_assert_eq!(map.assignments.len(), bbvs.len());
        prop_assert_eq!(map.phases.len(), map.k as usize);
        // Sizes partition the chunks; weights sum to 1.
        let total: u64 = map.phases.iter().map(|p| p.size).sum();
        prop_assert_eq!(total, bbvs.len() as u64);
        let weight: f64 = map.phases.iter().map(|p| p.weight).sum();
        prop_assert!((weight - 1.0).abs() < 1e-9, "weights sum to {}", weight);
        for p in &map.phases {
            // The representative is a member of its own cluster.
            prop_assert_eq!(map.assignments[p.representative as usize], p.cluster);
            prop_assert!(p.size >= 1);
        }
    }

    #[test]
    fn phase_maps_round_trip_through_json(
        bbvs in proptest::collection::vec(arb_fingerprint(), 1..25),
        seed in any::<u64>(),
    ) {
        let cfg = ClusterConfig { seed, ..ClusterConfig::default() };
        let map = cluster(&bbvs, &cfg);
        let parsed = PhaseMap::parse(&map.to_json().to_string()).unwrap();
        prop_assert_eq!(parsed, map);
    }

    #[test]
    fn exhaustive_recombination_is_bit_identical(
        counts in proptest::collection::vec(0u64..1_000_000, 1..30),
    ) {
        // Integer per-chunk counts with multiplier 1 (every chunk its own
        // phase) must sum to exactly the full-trace total.
        let slices: Vec<SliceStats> = counts
            .iter()
            .map(|&c| SliceStats {
                multiplier: 1,
                counts: BTreeMap::from([("executed".to_string(), c as f64)]),
            })
            .collect();
        let out = recombine(&slices);
        let exact: f64 = counts.iter().map(|&c| c as f64).sum();
        prop_assert_eq!(out["executed"], exact);
    }
}
