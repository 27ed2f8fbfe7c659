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
        let mut remaining = dt_s;
        while remaining > 0.0 {
            let slice = remaining.min(self.to_next_vsync_s);
            self.render(slice, frame_period_s);
            self.to_next_vsync_s -= slice;
            remaining -= slice;
            if self.to_next_vsync_s <= 1e-12 {
                // VSync boundary.
                out.vsyncs += 1;
                if self.queued > 0 {
                    self.queued -= 1;
                    out.presented += 1;
                } else {
                    out.repeated += 1;
                }
                self.to_next_vsync_s = vsync_period;
            }
        }
        out
    }

    /// Renders for `dt_s` seconds, filling back buffers subject to
    /// back-pressure.
    fn render(&mut self, dt_s: f64, frame_period_s: Option<f64>) {
        let Some(period) = frame_period_s else {
            return;
        };
        if period <= 0.0 {
            // Instantaneous rendering: fill the queue.
            self.queued = BACK_BUFFERS;
            self.render_progress = 0.0;
            return;
        }
        let mut budget = dt_s / period; // frames' worth of work
        while budget > 0.0 && self.queued < BACK_BUFFERS {
            let need = 1.0 - self.render_progress;
            if budget >= need {
                budget -= need;
                self.render_progress = 0.0;
                self.queued += 1;
            } else {
                self.render_progress += budget;
                budget = 0.0;
            }
        }
        // Any leftover budget is lost to the stall (back-pressure).
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

#[cfg(test)]
mod tests {
    use super::*;

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
