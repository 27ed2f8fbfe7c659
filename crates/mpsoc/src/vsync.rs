//! VSync and triple buffering, following §I of the paper.
//!
//! The display refreshes at 60 Hz, so a VSync fires every 16.67 ms. The
//! renderer draws into two back buffers; on each VSync, a finished back
//! buffer (if any) becomes the front buffer and counts as a *presented*
//! frame. If no new frame is ready, the display repeats the front buffer
//! and the interval counts as a *dropped* (repeated) VSync — the lag or
//! stutter the paper identifies as the QoS loss.
//!
//! The pipeline applies renderer back-pressure: with both back buffers
//! full the renderer stalls, so production can never run more than two
//! frames ahead of the display.
//!
//! A tick cuts its interval at every VSync boundary it reaches. Each
//! slice first renders, then its boundary presents a queued frame or
//! repeats the front buffer. One loop does both, with the phase, queue
//! and render progress in local variables: a screen-off second between
//! pickups is about 60 such slices, and a 25 ms session tick one or two.

/// Number of back buffers in the Android-style swap chain.
pub const BACK_BUFFERS: u32 = 2;

/// Outcome of advancing the pipeline over an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VsyncOutput {
    /// VSync boundaries that fired during the interval.
    pub vsyncs: u32,
    /// VSyncs at which a new frame was presented.
    pub presented: u32,
    /// VSyncs at which the previous frame was repeated.
    pub repeated: u32,
}

impl VsyncOutput {
    /// Presented frames per second over a window of `dt_s` seconds.
    #[must_use]
    pub fn fps(&self, dt_s: f64) -> f64 {
        if dt_s <= 0.0 {
            0.0
        } else {
            f64::from(self.presented) / dt_s
        }
    }
}

/// Stateful VSync + triple-buffering pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct VsyncPipeline {
    refresh_hz: f64,
    /// Seconds until the next VSync boundary.
    to_next_vsync_s: f64,
    /// Fractional progress (0..1) of the frame currently being rendered.
    render_progress: f64,
    /// Finished frames waiting in back buffers.
    queued: u32,
}

impl VsyncPipeline {
    /// Creates a pipeline at the given refresh rate (60 Hz on most
    /// commercial devices, §I).
    ///
    /// # Panics
    ///
    /// Panics if `refresh_hz` is not positive and finite.
    #[must_use]
    pub fn new(refresh_hz: f64) -> Self {
        assert!(
            refresh_hz > 0.0 && refresh_hz.is_finite(),
            "refresh rate must be positive"
        );
        VsyncPipeline {
            refresh_hz,
            to_next_vsync_s: 1.0 / refresh_hz,
            render_progress: 0.0,
            queued: 0,
        }
    }

    /// The display refresh rate in Hz.
    #[must_use]
    pub fn refresh_hz(&self) -> f64 {
        self.refresh_hz
    }

    /// Frames currently queued in back buffers.
    #[must_use]
    pub fn queued(&self) -> u32 {
        self.queued
    }

    /// Advances the pipeline by `dt_s` seconds while the renderer
    /// produces frames with period `frame_period_s` (use `None` when the
    /// application produces no frames, e.g. music playing with a static
    /// screen).
    ///
    /// # Panics
    ///
    /// Panics unless `dt_s` is finite: an infinite interval would slice
    /// VSync periods forever.
    #[inline]
    pub fn tick(&mut self, dt_s: f64, frame_period_s: Option<f64>) -> VsyncOutput {
        assert!(
            dt_s.is_finite(),
            "VSync interval must be finite, got {dt_s}"
        );
        let mut out = VsyncOutput::default();
        if dt_s <= 0.0 {
            return out;
        }
        let vsync_period = 1.0 / self.refresh_hz;
        let mut to_next = self.to_next_vsync_s;
        let mut queued = self.queued;
        let mut progress = self.render_progress;
        let mut remaining = dt_s;
        loop {
            // A slice that reaches the boundary leaves exactly `0.0`
            // before it, so it always fires; the last, shorter slice
            // fires only when it ends within 1e-12 s of the boundary.
            if remaining >= to_next {
                render(to_next, frame_period_s, &mut queued, &mut progress);
                remaining -= to_next;
            } else {
                render(remaining, frame_period_s, &mut queued, &mut progress);
                to_next -= remaining;
                if to_next > 1e-12 {
                    break;
                }
                remaining = 0.0;
            }
            // VSync boundary.
            out.vsyncs += 1;
            if queued > 0 {
                queued -= 1;
                out.presented += 1;
            } else {
                out.repeated += 1;
            }
            to_next = vsync_period;
            if remaining <= 0.0 {
                break;
            }
        }
        self.to_next_vsync_s = to_next;
        self.queued = queued;
        self.render_progress = progress;
        out
    }

    /// Discards queued frames and render progress (e.g. app switch).
    pub fn flush(&mut self) {
        self.queued = 0;
        self.render_progress = 0.0;
    }
}

impl Default for VsyncPipeline {
    fn default() -> Self {
        VsyncPipeline::new(60.0)
    }
}

/// Renders for `dt_s` seconds into the `queued` back buffers and the
/// `progress` (0..1) of the frame being drawn, subject to
/// back-pressure.
#[inline]
fn render(dt_s: f64, frame_period_s: Option<f64>, queued: &mut u32, progress: &mut f64) {
    let Some(period) = frame_period_s else {
        return;
    };
    if period <= 0.0 {
        // Instantaneous rendering: fill the queue.
        *queued = BACK_BUFFERS;
        *progress = 0.0;
        return;
    }
    let mut budget = dt_s / period; // frames' worth of work
    while budget > 0.0 && *queued < BACK_BUFFERS {
        let need = 1.0 - *progress;
        if budget >= need {
            budget -= need;
            *progress = 0.0;
            *queued += 1;
        } else {
            *progress += budget;
            budget = 0.0;
        }
    }
    // Any leftover budget is lost to the stall (back-pressure).
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The oracle: the tick as a `min`-picked slice per pass, rendering
    /// and VSync accounting on the pipeline's own fields.
    fn reference_tick(
        pipe: &mut VsyncPipeline,
        dt_s: f64,
        frame_period_s: Option<f64>,
    ) -> VsyncOutput {
        let mut out = VsyncOutput::default();
        if dt_s <= 0.0 {
            return out;
        }
        let vsync_period = 1.0 / pipe.refresh_hz;
        let mut remaining = dt_s;
        while remaining > 0.0 {
            let slice = remaining.min(pipe.to_next_vsync_s);
            reference_render(pipe, slice, frame_period_s);
            pipe.to_next_vsync_s -= slice;
            remaining -= slice;
            if pipe.to_next_vsync_s <= 1e-12 {
                out.vsyncs += 1;
                if pipe.queued > 0 {
                    pipe.queued -= 1;
                    out.presented += 1;
                } else {
                    out.repeated += 1;
                }
                pipe.to_next_vsync_s = vsync_period;
            }
        }
        out
    }

    /// The oracle's renderer, on the pipeline's own fields.
    fn reference_render(pipe: &mut VsyncPipeline, dt_s: f64, frame_period_s: Option<f64>) {
        let Some(period) = frame_period_s else {
            return;
        };
        if period <= 0.0 {
            pipe.queued = BACK_BUFFERS;
            pipe.render_progress = 0.0;
            return;
        }
        let mut budget = dt_s / period;
        while budget > 0.0 && pipe.queued < BACK_BUFFERS {
            let need = 1.0 - pipe.render_progress;
            if budget >= need {
                budget -= need;
                pipe.render_progress = 0.0;
                pipe.queued += 1;
            } else {
                pipe.render_progress += budget;
                budget = 0.0;
            }
        }
    }

    proptest! {
        /// The tick equals the oracle bit for bit — the output, and the
        /// phase, queue and render progress after every tick — from
        /// random starting states, for frameless, instantaneous and
        /// timed renderers, over session ticks, 1 s gap ticks, gap
        /// tails, 2e-9 s slivers, ticks longer than the FPS window,
        /// exact VSync periods and ticks that end within 2e-12 s of a
        /// boundary (either side of the 1e-12 s tolerance).
        #[test]
        fn tick_matches_the_min_sliced_oracle(
            refresh in (0usize..3).prop_map(|k| [60.0, 90.0, 120.0][k]),
            start in (0.0f64..1.0, 0u32..3, 0.0f64..1.0),
            ticks in proptest::collection::vec(
                (0usize..7, 0.0f64..1.0, 0usize..4, 1e-4f64..0.2),
                1..40,
            ),
        ) {
            let (phase, queued, progress) = start;
            let mut pipe = VsyncPipeline::new(refresh);
            pipe.to_next_vsync_s = (1.0 - phase) / refresh;
            pipe.queued = queued;
            pipe.render_progress = progress;
            let mut oracle = pipe.clone();
            for (t, &(kind, frac, renderer, period)) in ticks.iter().enumerate() {
                let dt = match kind {
                    0 => 0.025,
                    1 => 1.0,
                    2 => frac,
                    3 => 2e-9,
                    4 => 0.5 + 4.5 * frac,
                    5 => 1.0 / refresh,
                    _ => pipe.to_next_vsync_s - 2e-12 * frac,
                };
                let frame_period = [None, Some(0.0), Some(period), Some(1.0 / refresh)][renderer];
                let got = pipe.tick(dt, frame_period);
                let want = reference_tick(&mut oracle, dt, frame_period);
                prop_assert_eq!(got, want, "tick {} of {} s", t, dt);
                prop_assert_eq!(
                    pipe.to_next_vsync_s.to_bits(),
                    oracle.to_next_vsync_s.to_bits(),
                    "tick {} phase", t
                );
                prop_assert_eq!(pipe.queued, oracle.queued, "tick {} queue", t);
                prop_assert_eq!(
                    pipe.render_progress.to_bits(),
                    oracle.render_progress.to_bits(),
                    "tick {} render progress", t
                );
            }
        }
    }

    #[test]
    fn fast_renderer_hits_refresh_rate() {
        let mut pipe = VsyncPipeline::new(60.0);
        // 5 ms frames: renderer far faster than the display.
        let out = pipe.tick(1.0, Some(0.005));
        assert_eq!(out.vsyncs, 60);
        // First VSync may present or repeat depending on phase; allow 1.
        assert!(out.presented >= 59, "presented {}", out.presented);
    }

    #[test]
    fn renderer_at_half_rate_presents_half() {
        let mut pipe = VsyncPipeline::new(60.0);
        // 33.3 ms frames → 30 fps.
        let out = pipe.tick(2.0, Some(1.0 / 30.0));
        let fps = out.fps(2.0);
        assert!((fps - 30.0).abs() <= 1.0, "fps {fps}");
        assert_eq!(out.presented + out.repeated, out.vsyncs);
    }

    #[test]
    fn frameless_app_presents_nothing() {
        let mut pipe = VsyncPipeline::new(60.0);
        let out = pipe.tick(1.0, None);
        assert_eq!(out.presented, 0);
        assert_eq!(out.repeated, out.vsyncs);
        assert_eq!(out.fps(1.0), 0.0);
    }

    #[test]
    fn backpressure_limits_queue() {
        let mut pipe = VsyncPipeline::new(60.0);
        pipe.tick(0.01, Some(1e-6));
        assert!(pipe.queued() <= BACK_BUFFERS);
    }

    #[test]
    fn zero_period_means_instant_frames() {
        let mut pipe = VsyncPipeline::new(60.0);
        let out = pipe.tick(0.5, Some(0.0));
        assert!(out.presented >= out.vsyncs - 1);
    }

    #[test]
    fn phase_preserved_across_ticks() {
        // Many small ticks must equal one large tick in total VSyncs.
        let mut a = VsyncPipeline::new(60.0);
        let mut b = VsyncPipeline::new(60.0);
        let mut total = VsyncOutput::default();
        for _ in 0..100 {
            let o = a.tick(0.01, Some(0.02));
            total.vsyncs += o.vsyncs;
            total.presented += o.presented;
            total.repeated += o.repeated;
        }
        let whole = b.tick(1.0, Some(0.02));
        assert_eq!(total.vsyncs, whole.vsyncs);
        // Frame production is deterministic, so presented counts match.
        assert_eq!(total.presented, whole.presented);
    }

    #[test]
    fn fps_never_exceeds_refresh() {
        let mut pipe = VsyncPipeline::new(60.0);
        let out = pipe.tick(10.0, Some(0.0001));
        assert!(out.fps(10.0) <= 60.0 + 1e-9);
    }

    #[test]
    fn flush_clears_queue() {
        let mut pipe = VsyncPipeline::new(60.0);
        pipe.tick(0.05, Some(0.001));
        pipe.flush();
        assert_eq!(pipe.queued(), 0);
        let out = pipe.tick(1.0 / 60.0, None);
        assert_eq!(out.presented, 0);
    }

    #[test]
    fn negative_dt_is_noop() {
        let mut pipe = VsyncPipeline::new(60.0);
        let out = pipe.tick(-1.0, Some(0.01));
        assert_eq!(out, VsyncOutput::default());
    }

    #[test]
    #[should_panic(expected = "VSync interval must be finite")]
    fn infinite_interval_panics() {
        let _ = VsyncPipeline::new(60.0).tick(f64::INFINITY, Some(0.01));
    }

    #[test]
    #[should_panic(expected = "refresh rate")]
    fn zero_refresh_rejected() {
        let _ = VsyncPipeline::new(0.0);
    }

    #[test]
    fn ninety_hz_display_supported() {
        // The paper notes some devices refresh at 90/120 Hz.
        let mut pipe = VsyncPipeline::new(90.0);
        let out = pipe.tick(1.0, Some(0.001));
        assert!(out.vsyncs == 90);
        assert!(out.fps(1.0) > 85.0);
    }
}
