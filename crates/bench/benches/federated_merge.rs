//! **Federated merge** — the streaming `MergeAccumulator` on 64
//! fully-populated paper-space tables (the Exynos 9810 encoder space at
//! 2 FPS bins: 622 080 states × 9 actions each, the same space
//! `qtable_backends` uses).
//!
//! `merge_streaming_dense_64_tables` folds the tables one at a time as
//! straight zips of the value/visit arenas, with no key materialisation
//! at all, so the pass is memory-bandwidth-bound on the irreducible
//! `states × tables × actions` multiply-add traffic — the floor for
//! this workload.
//!
//! Two distinct tables are cycled behind the 64 references so the pass
//! merges real, differing data without holding 64 fully-populated
//! arenas in memory.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use next_core::StateEncoder;
use qlearn::federated::merge;
use qlearn::DenseQTable;

/// FPS bins of the benchmark space (matches `qtable_backends`).
const FPS_BINS: usize = 2;

/// Tables per merge pass.
const TABLES: usize = 64;

fn build_table(states: u64, salt: u64) -> DenseQTable {
    let mut t = DenseQTable::dense_for_space(9, 0.0, states);
    for s in 0..states {
        for a in 0..9 {
            let v = ((s + salt + a as u64 * 7) % 13) as f64 - 6.0;
            t.set(s, a, v);
        }
    }
    t
}

fn bench_federated_merge(crit: &mut Criterion) {
    let states = StateEncoder::exynos9810(FPS_BINS).state_space_size();
    eprintln!("merging {TABLES} fully-populated paper-space tables ({states} states x 9 actions)");

    let dense = [build_table(states, 0), build_table(states, 5)];
    let dense_refs: Vec<&DenseQTable> = (0..TABLES).map(|i| &dense[i % 2]).collect();
    crit.bench_function("merge_streaming_dense_64_tables", |bencher| {
        bencher.iter(|| black_box(merge(black_box(&dense_refs))));
    });
}

criterion_group!(benches, bench_federated_merge);
criterion_main!(benches);
