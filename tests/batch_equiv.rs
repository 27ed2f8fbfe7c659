//! Property-based lane independence of the batched structure-of-arrays
//! tick kernel: for any cohort of 1–32 device lanes mixing both
//! platform presets, random baseline governors and random sessions,
//! lane `l` of an N-lane [`SocBatch`] stepped in lockstep must be
//! bit-identical to a one-lane device ([`Soc`], a width-1 batch) run
//! alone on lane `l`'s inputs.
//!
//! This is the contract that makes batching safe to wire underneath
//! the day runner: it is an *optimization*, never an approximation.

use proptest::prelude::*;

use next_mpsoc::governors::by_name;
use next_mpsoc::mpsoc::soc::Soc;
use next_mpsoc::mpsoc::SocBatch;
use next_mpsoc::simkit::{BatchLane, Engine, NullSink, PlatformPreset, RunOutcome, Trace};
use next_mpsoc::workload::{SessionPlan, SessionSim};

const PLATFORMS: [&str; 2] = ["exynos9810", "exynos9820"];
const GOVERNORS: [&str; 5] = [
    "schedutil",
    "intqos",
    "performance",
    "powersave",
    "ondemand",
];
const APPS: [&str; 3] = ["facebook", "youtube", "spotify"];

/// One generated lane: platform, governor, app, session seed.
type LaneSpec = (usize, usize, usize, u64);

fn empty_outcomes(n: usize) -> Vec<RunOutcome> {
    (0..n)
        .map(|_| RunOutcome {
            trace: Trace::new(),
            presented_frames: 0,
            repeated_vsyncs: 0,
        })
        .collect()
}

proptest! {
    /// Mixed-platform cohorts: lanes are grouped per platform (a batch
    /// shares one physics structure), each group is run batched, and
    /// every lane must match its one-lane device in trace, summary and
    /// final observable state.
    #[test]
    fn batched_cohort_matches_scalar_per_lane(
        lanes in proptest::collection::vec(
            (0usize..2, 0usize..5, 0usize..3, 0u64..10_000),
            1..33,
        )
    ) {
        let engine = Engine::new();
        let duration_s = 3.0;
        for (pi, platform) in PLATFORMS.iter().enumerate() {
            let group: Vec<&LaneSpec> =
                lanes.iter().filter(|l| l.0 == pi).collect();
            if group.is_empty() {
                continue;
            }
            let config = PlatformPreset::by_name(platform).unwrap().soc;

            // Reference: each device alone, as a one-lane run.
            let mut scalar_states = Vec::with_capacity(group.len());
            let scalar: Vec<RunOutcome> = group
                .iter()
                .map(|&&(_, gi, ai, seed)| {
                    let mut soc = Soc::new(config.clone());
                    let mut gov = by_name(GOVERNORS[gi]).unwrap();
                    let mut session = SessionSim::new(
                        SessionPlan::single(APPS[ai], duration_s),
                        seed,
                    );
                    let out = engine.run(
                        &mut soc,
                        gov.as_mut(),
                        &mut session,
                        duration_s,
                    );
                    scalar_states.push(soc.state());
                    out
                })
                .collect();

            // The same cohort in lockstep on the batched kernel.
            let mut batch = SocBatch::replicate(&config, group.len()).unwrap();
            let mut governors: Vec<_> = group
                .iter()
                .map(|&&(_, gi, _, _)| by_name(GOVERNORS[gi]).unwrap())
                .collect();
            let mut sessions: Vec<_> = group
                .iter()
                .map(|&&(_, _, ai, seed)| {
                    SessionSim::new(SessionPlan::single(APPS[ai], duration_s), seed)
                })
                .collect();
            let mut batch_lanes: Vec<BatchLane<'_>> = governors
                .iter_mut()
                .zip(sessions.iter_mut())
                .map(|(g, s)| BatchLane {
                    governor: g.as_mut(),
                    session: s,
                })
                .collect();
            let mut outcomes = empty_outcomes(group.len());
            let mut sinks = vec![NullSink; group.len()];
            engine.run_lanes_traced(
                &mut batch,
                &mut batch_lanes,
                duration_s,
                &mut outcomes,
                &mut sinks,
            );

            for (l, spec) in group.iter().enumerate() {
                prop_assert_eq!(
                    &outcomes[l],
                    &scalar[l],
                    "lane {} ({:?}) trace diverged on {}",
                    l,
                    spec,
                    platform
                );
                prop_assert_eq!(
                    outcomes[l].trace.summary(),
                    scalar[l].trace.summary(),
                    "lane {} summary diverged on {}",
                    l,
                    platform
                );
                prop_assert!(
                    *batch.state(l) == scalar_states[l],
                    "lane {} final SocState diverged on {}",
                    l,
                    platform
                );
            }
        }
    }

    /// `Soc` + `Engine::run` and a one-lane `SocBatch` +
    /// `Engine::run_lanes_traced` are two spellings of the same one-lane
    /// run, and must stay so: a specialised single-device path would
    /// have to reproduce the lane loop bit for bit.
    #[test]
    fn width_one_batch_is_the_scalar_device(
        pi in 0usize..2,
        gi in 0usize..5,
        ai in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let engine = Engine::new();
        let duration_s = 5.0;
        let config = PlatformPreset::by_name(PLATFORMS[pi]).unwrap().soc;

        let mut soc = Soc::new(config.clone());
        let mut gov = by_name(GOVERNORS[gi]).unwrap();
        let mut session =
            SessionSim::new(SessionPlan::single(APPS[ai], duration_s), seed);
        let scalar = engine.run(&mut soc, gov.as_mut(), &mut session, duration_s);

        let mut batch = SocBatch::replicate(&config, 1).unwrap();
        let mut gov = by_name(GOVERNORS[gi]).unwrap();
        let mut session =
            SessionSim::new(SessionPlan::single(APPS[ai], duration_s), seed);
        let mut lanes = [BatchLane {
            governor: gov.as_mut(),
            session: &mut session,
        }];
        let mut outcomes = empty_outcomes(1);
        engine.run_lanes_traced(&mut batch, &mut lanes, duration_s, &mut outcomes, &mut [NullSink]);

        prop_assert_eq!(&outcomes[0], &scalar);
        prop_assert!(*batch.state(0) == soc.state(), "final state diverged");
    }
}
