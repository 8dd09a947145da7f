//! Benchmark for Figure 5 (Ranking 2 Spearman): the filtered-marginal
//! tabulation plus release-and-rank loop.

use bench::{bench_context, bench_trials};
use criterion::{criterion_group, criterion_main, Criterion};
use eree_core::{MechanismKind, PrivacyParams};
use eval::experiments::{figure5, release_cells};
use eval::metrics::spearman;
use std::hint::black_box;
use tabulate::{ranking2_expr, workload1};

fn bench_figure5(c: &mut Criterion) {
    let ctx = bench_context();

    let mut group = c.benchmark_group("figure5");
    let filter = ranking2_expr();
    group.bench_function("filtered_tabulation", |b| {
        b.iter(|| black_box(ctx.index.marginal_expr_sharded(&workload1(), &filter, 1)))
    });

    let truth = ctx.index.marginal_expr_sharded(&workload1(), &filter, 1);
    let keys: Vec<_> = truth.iter().map(|(k, _)| k).collect();
    let base: Vec<f64> = truth.iter().map(|(_, s)| s.count as f64).collect();
    group.bench_function("release_and_rank_filtered", |b| {
        let params = PrivacyParams::pure(0.1, 2.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let published =
                release_cells(&truth, MechanismKind::SmoothGamma, &params, seed).unwrap();
            let ours: Vec<f64> = keys
                .iter()
                .map(|k| published.get(k).copied().unwrap_or(0.0))
                .collect();
            black_box(spearman(&base, &ours))
        })
    });

    group.sample_size(10);
    group.bench_function("full_experiment_small", |b| {
        let trials = bench_trials();
        b.iter(|| black_box(figure5::run(&ctx, &trials)))
    });
    group.finish();
}

criterion_group!(benches, bench_figure5);
criterion_main!(benches);
