//! **Q-table hot loop** — argmax and argmax+update on the dense-indexed
//! backend over a fully-populated paper-sized state space.
//!
//! "Paper-sized" means the Exynos 9810 state space of the Next encoder
//! (18×10×6 OPP ladders × fps² × 4 power × 6² temperature bins) at the
//! coarse end of the paper's Fig. 6 FPS-bin sweep: 2 bins → 622 080
//! states, every one populated with all 9 actions, so the table is far
//! larger than any cache level and the probe path dominates. The CI
//! perf artifact (`next-sim perf`) times the same loop as its `qtable`
//! probe.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use next_core::StateEncoder;
use qlearn::{DenseQTable, QLearning};

/// FPS bins for the benchmark space (Fig. 6 sweeps 1..60; 2 keeps the
/// fully-populated table around 600k states — big, but buildable).
const FPS_BINS: usize = 2;

fn paper_space_size() -> u64 {
    StateEncoder::exynos9810(FPS_BINS).state_space_size()
}

fn populate(table: &mut DenseQTable, states: u64) {
    for s in 0..states {
        for a in 0..9 {
            let v = ((s + a as u64 * 7) % 13) as f64 - 6.0;
            table.set(s, a, v);
        }
    }
}

/// Deterministic scattered probe order (xorshift64* shuffle).
fn probe_keys(states: u64, n: usize) -> Vec<u64> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..n)
        .map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x9e37_79b9_7f4a_7c15) % states
        })
        .collect()
}

fn bench_qtable_backends(crit: &mut Criterion) {
    let states = paper_space_size();
    eprintln!("paper space at {FPS_BINS} fps bins: {states} states, fully populated");
    let mut table = DenseQTable::dense_for_space(9, 0.0, states);
    populate(&mut table, states);
    let keys = probe_keys(states, 4096);
    let learner = QLearning::new(0.25, 0.5);

    let mut cursor = 0usize;
    crit.bench_function("dense_argmax", |bencher| {
        bencher.iter(|| {
            let key = keys[cursor];
            cursor = (cursor + 1) % keys.len();
            black_box(table.best_action(black_box(key)))
        });
    });

    let mut upd_cursor = 0usize;
    crit.bench_function("dense_argmax_update", |bencher| {
        bencher.iter(|| {
            let key = keys[upd_cursor];
            let next = keys[(upd_cursor + 1) % keys.len()];
            upd_cursor = (upd_cursor + 1) % keys.len();
            let (action, _) = table.best_action(key);
            black_box(learner.update(&mut table, key, action, 0.5, next))
        });
    });
}

criterion_group!(benches, bench_qtable_backends);
criterion_main!(benches);
