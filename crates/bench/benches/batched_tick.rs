//! **Batched tick kernel** — one N-lane [`SocBatch`] stepping N devices
//! in lockstep versus the same cohort stepped as N one-lane devices
//! ([`Soc`], a width-1 batch) one after another, on identical
//! pre-computed frame-demand traces (10 simulated seconds of a
//! `facebook` session per lane, the in-SoC utilization governor as the
//! only control loop). Both sides run the same kernel, so the ratio
//! prices what lane-contiguous arrays save over N separate batches.
//!
//! Two widths bracket the kernel's scaling story:
//!
//! * `batched_tick_w8` vs `soc_tick_sequential_w8` — a
//!   day-runner-sized cohort (the 6 standard governors plus headroom).
//! * `batched_tick_w64` vs `soc_tick_sequential_w64` — a
//!   fleet-round-sized cohort, where the lane-contiguous arrays earn
//!   their keep: structure constants (trip points, thermal couplings,
//!   OPP ladders) are read once per tick instead of once per device.
//!
//! Width 1 has no pair: both sides would time the same kernel.
//!
//! Wall-clock claims live in `BENCH.json`'s `batch` section
//! (`device_days_per_sec`, CI-gated); this bench is for profiling the
//! same loop under criterion.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use mpsoc::perf::FrameDemand;
use mpsoc::soc::{Soc, SocConfig};
use mpsoc::SocBatch;
use simkit::Engine;
use workload::{SessionPlan, SessionSim};

/// Simulated seconds per lane per measured pass.
const DURATION_S: f64 = 10.0;

/// Tick-major demand traces: `demands[t][lane]`.
fn demand_traces(width: usize) -> (f64, Vec<Vec<FrameDemand>>) {
    let engine = Engine::new();
    let dt = engine.tick_s();
    let ticks = engine.ticks_for(DURATION_S) as usize;
    let mut demands = vec![Vec::with_capacity(width); ticks];
    for lane in 0..width {
        let mut session = SessionSim::new(
            SessionPlan::single("facebook", DURATION_S),
            1000 + lane as u64,
        );
        for row in &mut demands {
            row.push(session.advance(dt));
        }
    }
    (dt, demands)
}

fn bench_batched_tick(crit: &mut Criterion) {
    let config = SocConfig::exynos9810();
    for width in [8usize, 64] {
        let (dt, demands) = demand_traces(width);

        crit.bench_function(&format!("batched_tick_w{width}"), |b| {
            b.iter(|| {
                let mut batch = SocBatch::replicate(&config, width).unwrap();
                for row in &demands {
                    batch.tick(black_box(dt), black_box(row));
                }
                black_box(batch.energy_j(0))
            });
        });

        crit.bench_function(&format!("soc_tick_sequential_w{width}"), |b| {
            b.iter(|| {
                let mut total = 0.0;
                for lane in 0..width {
                    let mut soc = Soc::new(config.clone());
                    for row in &demands {
                        soc.tick(black_box(dt), black_box(&row[lane]));
                    }
                    total += soc.state().temp_device_c;
                }
                black_box(total)
            });
        });
    }
}

criterion_group!(benches, bench_batched_tick);
criterion_main!(benches);
