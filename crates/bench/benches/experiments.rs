//! One Criterion bench per registered experiment: measures the
//! end-to-end sequential computation of every table and figure at quick
//! scale, through the same cells the campaign binaries run.
//!
//! Run a single experiment with e.g. `cargo bench --bench experiments -- table4`.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::jobs::registry;
use experiments::telemetry::TelemetryCtx;
use experiments::Scale;
use std::hint::black_box;

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    group.sample_size(10);
    let ctx = TelemetryCtx::off();
    for def in registry::all() {
        group.bench_function(def.name, |b| {
            b.iter(|| black_box(def.compute(&ctx, Scale::Quick)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
