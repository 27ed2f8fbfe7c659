//! Compact per-tick trace recording, a dep-free binary codec, and
//! divergence bisect.
//!
//! Determinism is this workspace's load-bearing invariant: every run is
//! a pure function of its spec, pinned byte-for-byte across batch
//! widths and across worker counts. This module *exploits*
//! that. A [`TraceSink`] hooks the engine's tick loop and records one
//! [`TickRecord`] per 25 ms base tick — per-domain frequency levels,
//! node temperatures, the governor's chosen action and reward, the
//! rolling FPS-window sample, battery drain, and which session or gap
//! the tick belongs to. [`TickTrace::encode`]/[`TickTrace::decode`]
//! give the trace a versioned binary form (`NXTR`, see
//! `docs/TRACE_FORMAT.md`) through `qlearn::wire`, the layer the table
//! and checkpoint formats share.
//!
//! On top of the codec:
//!
//! * **replay** — [`crate::day::replay_day`] re-executes a recorded
//!   day from the trace's [`TraceMeta`] alone and the CLI
//!   (`next-sim replay`) asserts byte-identity against the original
//!   file,
//! * **bisect** — [`bisect`] compares two traces of the same scenario
//!   and pinpoints the first divergent tick with a field-level diff,
//! * **reports** — `bench::report` renders a recorded day as a
//!   self-contained HTML viewer.
//!
//! Recording is strictly opt-in: the engine entry points take any
//! [`TraceSink`] and the default [`NullSink`] is a zero-sized type
//! whose `enabled()` returns `false`, so the monomorphised tick loop
//! contains no recording code at all when tracing is off.
//!
//! # Example
//!
//! ```
//! use simkit::trace::{bisect, TickRecord, TickTrace, TraceMeta, SegmentKind};
//!
//! // A two-tick trace (metadata names a quick gamer day, 3 domains).
//! let meta = TraceMeta::example();
//! let mut records = vec![TickRecord::idle(0.025, SegmentKind::Gap, 0, 3); 2];
//! records[1].time_s = 0.050;
//! let trace = TickTrace { meta, records };
//!
//! // The binary codec round-trips exactly.
//! let bytes = trace.encode();
//! let back = TickTrace::decode(&bytes).unwrap();
//! assert_eq!(back, trace);
//!
//! // Bisect pinpoints the first divergent tick, field by field.
//! let mut perturbed = trace.clone();
//! perturbed.records[1].fps = 60.0;
//! let report = bisect(&trace, &perturbed);
//! let divergence = report.divergence.unwrap();
//! assert_eq!(divergence.tick, 1);
//! assert_eq!(divergence.fields[0].field, "fps");
//! ```

use std::fmt;

use governors::ControlDecision;
use mpsoc::soc::SocState;
use qlearn::wire::{
    put_f32, put_f64, put_header, put_str16, put_u16, put_u32, put_u64, Reader, WireError,
    WireErrorKind,
};
use workload::DayPlanConfig;

use crate::metrics::Battery;

/// Format version written by [`TickTrace::encode`]; decode rejects
/// anything else (see `docs/TRACE_FORMAT.md` for the versioning rules).
pub const TRACE_VERSION: u16 = 1;

/// Magic bytes opening every trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"NXTR";

/// Scenario discriminator: a battery-day run (currently the only
/// recorded scenario).
pub const SCENARIO_DAY: u8 = 1;

/// Wire value of "no explicit action this tick".
const ACTION_NONE: u16 = u16::MAX;

/// What kind of day segment a tick belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Screen-off gap (idle ticking, no governor).
    Gap,
    /// Screen-on session (a real engine run under the governor).
    Session,
}

/// One engine tick as seen by a [`TraceSink`]: the pre-control state
/// snapshot, the tick length, and — on control ticks — the governor's
/// decision.
#[derive(Debug, Clone, Copy)]
pub struct TickView<'a> {
    /// Observable SoC state at the tick (the snapshot the governor saw).
    pub state: &'a SocState,
    /// Tick length in seconds (gap ticks may be shorter than the
    /// configured gap tick at a segment boundary).
    pub dt_s: f64,
    /// The governor's decision, present only on ticks where `control`
    /// ran and the governor exposes one.
    pub decision: Option<ControlDecision>,
}

/// Hook the engine tick loops call once per tick. Implementations that
/// return `false` from [`TraceSink::enabled`] cost nothing: the engine
/// branches on it before assembling a [`TickView`], and for the
/// zero-sized [`NullSink`] the branch folds away entirely.
pub trait TraceSink {
    /// Whether this sink records anything at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Announces the start of a day segment (`index` = pickup index;
    /// the tail gap uses the pickup count). Default: ignored.
    fn begin_segment(&mut self, kind: SegmentKind, index: usize) {
        let _ = (kind, index);
    }

    /// Records one tick.
    fn record(&mut self, view: &TickView<'_>);
}

/// The disabled sink: records nothing, zero-sized, `enabled() == false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _view: &TickView<'_>) {}
}

/// Everything needed to *regenerate* a recorded day from scratch — the
/// replay contract: the day engine is deterministic, so `(platform,
/// governor, persona, plan config, seed, budgets, battery)` pins every
/// recorded byte.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Platform preset name (resolves via
    /// [`crate::platform::PlatformPreset::by_name`]).
    pub platform: String,
    /// Governor name (see [`crate::sweep::StandardEvaluator::GOVERNORS`]).
    pub governor: String,
    /// Persona name the day plan was generated for.
    pub persona: String,
    /// Day-plan generation seed.
    pub seed: u64,
    /// Day-plan shape (pickups, day length, session scaling).
    pub plan: DayPlanConfig,
    /// Screen-off gap tick length, seconds.
    pub gap_tick_s: f64,
    /// Base training budget for first-use Q-table training, seconds.
    pub train_budget_s: f64,
    /// Battery pack drain is reported against.
    pub battery: Battery,
    /// Engine base tick, seconds.
    pub tick_s: f64,
    /// DVFS-domain count of the platform (sizes every record).
    pub n_domains: u8,
}

impl TraceMeta {
    /// A small, valid metadata block (quick gamer day under schedutil
    /// on the default platform) for examples and tests.
    #[must_use]
    pub fn example() -> Self {
        TraceMeta {
            platform: "exynos9810".to_owned(),
            governor: "schedutil".to_owned(),
            persona: "gamer".to_owned(),
            seed: 7,
            plan: DayPlanConfig::quick(),
            gap_tick_s: 1.0,
            train_budget_s: 120.0,
            battery: Battery::note9(),
            tick_s: 0.025,
            n_domains: 3,
        }
    }
}

/// One recorded tick. Fixed-size on the wire (`37 + 5·n_domains`
/// bytes); floats narrowed to `f32` where sensor precision allows —
/// only `time_s` keeps full width, since a 16 h day at 25 ms ticks
/// exceeds `f32` resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// Simulated day time, seconds.
    pub time_s: f64,
    /// Segment the tick belongs to.
    pub kind: SegmentKind,
    /// Pickup index of the segment (tail gap = pickup count).
    pub pickup: u16,
    /// Governor action index, when the tick's control step exposed one.
    pub action: Option<u16>,
    /// Reward of the control step (0 when `action` is `None`).
    pub reward: f32,
    /// Rolling FPS-window sample (≈0.5 s window).
    pub fps: f32,
    /// Platform power over the tick, watts.
    pub power_w: f32,
    /// Cumulative battery drain at the tick, percent of the pack.
    pub battery_pct: f32,
    /// Virtual device sensor temperature, °C.
    pub temp_device_c: f32,
    /// Battery/board sensor temperature, °C.
    pub temp_battery_c: f32,
    /// OPP level per domain, in platform order.
    pub freq_level: Vec<u8>,
    /// Die sensor temperature per domain, °C, in platform order.
    pub temp_domain_c: Vec<f32>,
}

impl TickRecord {
    /// An all-idle record for examples and tests (`n_domains` sized).
    #[must_use]
    pub fn idle(time_s: f64, kind: SegmentKind, pickup: u16, n_domains: usize) -> Self {
        TickRecord {
            time_s,
            kind,
            pickup,
            action: None,
            reward: 0.0,
            fps: 0.0,
            power_w: 0.1,
            battery_pct: 0.0,
            temp_device_c: 25.0,
            temp_battery_c: 25.0,
            freq_level: vec![0; n_domains],
            temp_domain_c: vec![25.0; n_domains],
        }
    }

    /// Wire size of one record for a given domain count.
    #[must_use]
    pub fn wire_size(n_domains: usize) -> usize {
        37 + 5 * n_domains
    }
}

/// A recorded run: metadata plus the per-tick records.
#[derive(Debug, Clone, PartialEq)]
pub struct TickTrace {
    /// The regeneration recipe.
    pub meta: TraceMeta,
    /// One record per engine tick, in time order.
    pub records: Vec<TickRecord>,
}

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A structural fault: bad magic or version, truncation, trailing
    /// bytes or a string that is not UTF-8.
    Wire(WireError),
    /// Unknown scenario discriminator.
    BadScenario(u8),
    /// Domain count outside `1..=`[`mpsoc::platform::MAX_DOMAINS`].
    BadDomains(u8),
    /// A record's segment byte is neither `0` (gap) nor `1` (session).
    BadSegment(u8),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Wire(e) => write!(f, "{e}"),
            TraceError::BadScenario(s) => write!(f, "unknown scenario discriminator {s}"),
            TraceError::BadDomains(n) => write!(f, "implausible domain count {n}"),
            TraceError::BadSegment(b) => write!(f, "unknown segment kind {b}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> Self {
        TraceError::Wire(e)
    }
}

impl TickTrace {
    /// Serialises the trace to its binary form (see
    /// `docs/TRACE_FORMAT.md`). Deterministic: identical traces encode
    /// to identical bytes — the property `next-sim replay` asserts.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let m = &self.meta;
        let n_domains = m.n_domains as usize;
        let mut out =
            Vec::with_capacity(128 + self.records.len() * TickRecord::wire_size(n_domains));
        put_header(&mut out, TRACE_MAGIC, TRACE_VERSION);
        out.push(SCENARIO_DAY);
        out.push(m.n_domains);
        put_f64(&mut out, m.tick_s);
        put_str16(&mut out, &m.platform);
        put_str16(&mut out, &m.governor);
        put_str16(&mut out, &m.persona);
        put_u64(&mut out, m.seed);
        put_u32(&mut out, m.plan.pickups);
        put_f64(&mut out, m.plan.day_length_s);
        put_f64(&mut out, m.plan.session_scale);
        put_f64(&mut out, m.plan.min_session_s);
        put_f64(&mut out, m.gap_tick_s);
        put_f64(&mut out, m.train_budget_s);
        put_f64(&mut out, m.battery.capacity_mah);
        put_f64(&mut out, m.battery.nominal_v);
        put_u64(&mut out, self.records.len() as u64);
        for r in &self.records {
            debug_assert_eq!(
                r.freq_level.len(),
                n_domains,
                "record/metadata domain mismatch"
            );
            put_f64(&mut out, r.time_s);
            out.push(match r.kind {
                SegmentKind::Gap => 0,
                SegmentKind::Session => 1,
            });
            put_u16(&mut out, r.pickup);
            put_u16(&mut out, r.action.unwrap_or(ACTION_NONE));
            put_f32(&mut out, r.reward);
            put_f32(&mut out, r.fps);
            put_f32(&mut out, r.power_w);
            put_f32(&mut out, r.battery_pct);
            put_f32(&mut out, r.temp_device_c);
            put_f32(&mut out, r.temp_battery_c);
            out.extend_from_slice(&r.freq_level);
            for &t in &r.temp_domain_c {
                put_f32(&mut out, t);
            }
        }
        out
    }

    /// Parses a binary trace.
    ///
    /// # Errors
    ///
    /// Rejects wrong magic/version/scenario, implausible domain counts,
    /// malformed strings, unknown segment bytes, truncation, and
    /// trailing bytes — a valid result always re-encodes to exactly the
    /// input.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = Reader::open(bytes, TRACE_MAGIC, TRACE_VERSION)?;
        let scenario = r.u8()?;
        if scenario != SCENARIO_DAY {
            return Err(TraceError::BadScenario(scenario));
        }
        let n_domains = r.u8()?;
        if n_domains == 0 || usize::from(n_domains) > mpsoc::platform::MAX_DOMAINS {
            return Err(TraceError::BadDomains(n_domains));
        }
        let meta = TraceMeta {
            n_domains,
            tick_s: r.f64()?,
            platform: r.str16()?,
            governor: r.str16()?,
            persona: r.str16()?,
            seed: r.u64()?,
            plan: DayPlanConfig {
                pickups: r.u32()?,
                day_length_s: r.f64()?,
                session_scale: r.f64()?,
                min_session_s: r.f64()?,
            },
            gap_tick_s: r.f64()?,
            train_budget_s: r.f64()?,
            battery: Battery {
                capacity_mah: r.f64()?,
                nominal_v: r.f64()?,
            },
        };
        let count = r.u64()?;
        let nd = usize::from(n_domains);
        // Records are fixed-size: bound the count by the bytes left
        // before sizing a buffer from it.
        if count > (r.remaining() / TickRecord::wire_size(nd)) as u64 {
            return Err(TraceError::Wire(WireError {
                format: TRACE_MAGIC,
                kind: WireErrorKind::Truncated,
            }));
        }
        let mut records = Vec::with_capacity(count as usize);
        for _ in 0..count {
            records.push(Self::decode_record(&mut r, nd)?);
        }
        r.finish()?;
        Ok(TickTrace { meta, records })
    }

    /// Parses one fixed-size tick record for an `nd`-domain platform
    /// (fields in wire order).
    fn decode_record(r: &mut Reader<'_>, nd: usize) -> Result<TickRecord, TraceError> {
        Ok(TickRecord {
            time_s: r.f64()?,
            kind: match r.u8()? {
                0 => SegmentKind::Gap,
                1 => SegmentKind::Session,
                b => return Err(TraceError::BadSegment(b)),
            },
            pickup: r.u16()?,
            action: match r.u16()? {
                ACTION_NONE => None,
                a => Some(a),
            },
            reward: r.f32()?,
            fps: r.f32()?,
            power_w: r.f32()?,
            battery_pct: r.f32()?,
            temp_device_c: r.f32()?,
            temp_battery_c: r.f32()?,
            freq_level: r.take(nd)?.to_vec(),
            temp_domain_c: (0..nd).map(|_| r.f32()).collect::<Result<_, _>>()?,
        })
    }
}

/// A [`TraceSink`] that accumulates [`TickRecord`]s and the running
/// battery drain for one device lane.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    meta: TraceMeta,
    records: Vec<TickRecord>,
    energy_j: f64,
    segment: (SegmentKind, u16),
}

impl TraceRecorder {
    /// Creates a recorder for one run described by `meta`.
    #[must_use]
    pub fn new(meta: TraceMeta) -> Self {
        TraceRecorder {
            meta,
            records: Vec::new(),
            energy_j: 0.0,
            segment: (SegmentKind::Gap, 0),
        }
    }

    /// Consumes the recorder, yielding the finished trace.
    #[must_use]
    pub fn finish(self) -> TickTrace {
        TickTrace {
            meta: self.meta,
            records: self.records,
        }
    }
}

impl TraceSink for TraceRecorder {
    fn begin_segment(&mut self, kind: SegmentKind, index: usize) {
        self.segment = (kind, u16::try_from(index).unwrap_or(u16::MAX));
    }

    #[allow(clippy::cast_possible_truncation)]
    fn record(&mut self, view: &TickView<'_>) {
        let state = view.state;
        debug_assert_eq!(
            state.freq_level.len(),
            usize::from(self.meta.n_domains),
            "recorder metadata does not match the platform"
        );
        self.energy_j += state.power_w * view.dt_s;
        self.records.push(TickRecord {
            time_s: state.time_s,
            kind: self.segment.0,
            pickup: self.segment.1,
            action: view.decision.map(|d| d.action),
            reward: view.decision.map_or(0.0, |d| d.reward as f32),
            fps: state.fps as f32,
            power_w: state.power_w as f32,
            battery_pct: self.meta.battery.drain_percent(self.energy_j) as f32,
            temp_device_c: state.temp_device_c as f32,
            temp_battery_c: state.temp_battery_c as f32,
            freq_level: state.freq_level.iter().map(|&l| l as u8).collect(),
            temp_domain_c: state.temp_domain_c.iter().map(|&t| t as f32).collect(),
        });
    }
}

// --- bisect ----------------------------------------------------------

/// One differing field, rendered as strings for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Field name.
    pub field: &'static str,
    /// Value in the first trace.
    pub a: String,
    /// Value in the second trace.
    pub b: String,
}

/// The first tick at which two traces disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Tick index (0-based) of the first disagreement.
    pub tick: usize,
    /// Simulated time of that tick in the first trace (or the second,
    /// when the first ended early).
    pub time_s: f64,
    /// The differing fields at that tick; empty when the divergence is
    /// one trace ending early.
    pub fields: Vec<FieldDiff>,
}

/// Outcome of comparing two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct BisectReport {
    /// Metadata fields that differ (two traces of *different* scenarios
    /// still bisect, but the meta diff is reported first).
    pub meta_diffs: Vec<FieldDiff>,
    /// Record count of the first trace.
    pub len_a: usize,
    /// Record count of the second trace.
    pub len_b: usize,
    /// The first divergent tick, or `None` when all shared records (and
    /// lengths) agree.
    pub divergence: Option<Divergence>,
}

impl BisectReport {
    /// Whether the traces are fully identical (metadata and records).
    #[must_use]
    pub fn is_identical(&self) -> bool {
        self.meta_diffs.is_empty() && self.divergence.is_none()
    }

    /// Human-readable multi-line rendering (the `next-sim bisect`
    /// output).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.meta_diffs {
            let _ = writeln!(out, "meta {}: {} != {}", d.field, d.a, d.b);
        }
        if self.len_a != self.len_b {
            let _ = writeln!(out, "length: {} != {} records", self.len_a, self.len_b);
        }
        match &self.divergence {
            None => {
                let _ = writeln!(out, "records identical ({} ticks)", self.len_a);
            }
            Some(div) => {
                let _ = writeln!(
                    out,
                    "first divergence at tick {} (t = {:.3} s):",
                    div.tick, div.time_s
                );
                if div.fields.is_empty() {
                    let _ = writeln!(out, "  one trace ends here");
                }
                for d in &div.fields {
                    let _ = writeln!(out, "  {}: {} != {}", d.field, d.a, d.b);
                }
            }
        }
        out
    }
}

fn diff_field<T: PartialEq + fmt::Debug>(
    out: &mut Vec<FieldDiff>,
    field: &'static str,
    a: &T,
    b: &T,
) {
    if a != b {
        out.push(FieldDiff {
            field,
            a: format!("{a:?}"),
            b: format!("{b:?}"),
        });
    }
}

fn diff_meta(a: &TraceMeta, b: &TraceMeta) -> Vec<FieldDiff> {
    let mut out = Vec::new();
    diff_field(&mut out, "platform", &a.platform, &b.platform);
    diff_field(&mut out, "governor", &a.governor, &b.governor);
    diff_field(&mut out, "persona", &a.persona, &b.persona);
    diff_field(&mut out, "seed", &a.seed, &b.seed);
    diff_field(&mut out, "plan.pickups", &a.plan.pickups, &b.plan.pickups);
    diff_field(
        &mut out,
        "plan.day_length_s",
        &a.plan.day_length_s,
        &b.plan.day_length_s,
    );
    diff_field(
        &mut out,
        "plan.session_scale",
        &a.plan.session_scale,
        &b.plan.session_scale,
    );
    diff_field(
        &mut out,
        "plan.min_session_s",
        &a.plan.min_session_s,
        &b.plan.min_session_s,
    );
    diff_field(&mut out, "gap_tick_s", &a.gap_tick_s, &b.gap_tick_s);
    diff_field(
        &mut out,
        "train_budget_s",
        &a.train_budget_s,
        &b.train_budget_s,
    );
    diff_field(&mut out, "battery", &a.battery, &b.battery);
    diff_field(&mut out, "tick_s", &a.tick_s, &b.tick_s);
    diff_field(&mut out, "n_domains", &a.n_domains, &b.n_domains);
    out
}

fn diff_record(a: &TickRecord, b: &TickRecord) -> Vec<FieldDiff> {
    let mut out = Vec::new();
    diff_field(&mut out, "time_s", &a.time_s, &b.time_s);
    diff_field(&mut out, "kind", &a.kind, &b.kind);
    diff_field(&mut out, "pickup", &a.pickup, &b.pickup);
    diff_field(&mut out, "action", &a.action, &b.action);
    diff_field(&mut out, "reward", &a.reward, &b.reward);
    diff_field(&mut out, "fps", &a.fps, &b.fps);
    diff_field(&mut out, "power_w", &a.power_w, &b.power_w);
    diff_field(&mut out, "battery_pct", &a.battery_pct, &b.battery_pct);
    diff_field(
        &mut out,
        "temp_device_c",
        &a.temp_device_c,
        &b.temp_device_c,
    );
    diff_field(
        &mut out,
        "temp_battery_c",
        &a.temp_battery_c,
        &b.temp_battery_c,
    );
    diff_field(&mut out, "freq_level", &a.freq_level, &b.freq_level);
    diff_field(
        &mut out,
        "temp_domain_c",
        &a.temp_domain_c,
        &b.temp_domain_c,
    );
    out
}

/// Finds the first tick at which two traces diverge, with a
/// field-level diff — the debugging tool for governor or kernel
/// changes that break a byte-identity fixture: record a trace before
/// and after the change and bisect them instead of eyeballing JSON
/// summaries.
///
/// Metadata differences are reported separately; when one trace is a
/// strict prefix of the other, the divergence points just past the
/// shared prefix with an empty field list.
#[must_use]
pub fn bisect(a: &TickTrace, b: &TickTrace) -> BisectReport {
    let meta_diffs = diff_meta(&a.meta, &b.meta);
    let len_a = a.records.len();
    let len_b = b.records.len();
    let shared = len_a.min(len_b);
    let mut divergence = None;
    for i in 0..shared {
        let fields = diff_record(&a.records[i], &b.records[i]);
        if !fields.is_empty() {
            divergence = Some(Divergence {
                tick: i,
                time_s: a.records[i].time_s,
                fields,
            });
            break;
        }
    }
    if divergence.is_none() && len_a != len_b {
        let time_s = if len_a > shared {
            a.records[shared].time_s
        } else {
            b.records[shared].time_s
        };
        divergence = Some(Divergence {
            tick: shared,
            time_s,
            fields: Vec::new(),
        });
    }
    BisectReport {
        meta_diffs,
        len_a,
        len_b,
        divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tick_trace() -> TickTrace {
        let meta = TraceMeta::example();
        let mut r0 = TickRecord::idle(0.025, SegmentKind::Gap, 0, 3);
        r0.battery_pct = 0.001;
        let mut r1 = TickRecord::idle(0.050, SegmentKind::Session, 1, 3);
        r1.action = Some(4);
        r1.reward = 1.5;
        r1.fps = 41.0;
        TickTrace {
            meta,
            records: vec![r0, r1],
        }
    }

    /// The structural error `kind` of an NXTR input.
    fn wire(kind: WireErrorKind) -> TraceError {
        TraceError::Wire(WireError {
            format: TRACE_MAGIC,
            kind,
        })
    }

    /// `two_tick_trace` on a four-domain platform.
    fn two_tick_trace_m4() -> TickTrace {
        let mut trace = two_tick_trace();
        trace.meta.platform = "exynos9820".to_owned();
        trace.meta.n_domains = 4;
        for r in &mut trace.records {
            r.freq_level.push(2);
            r.temp_domain_c.push(31.5);
        }
        trace
    }

    /// Byte pins of the trace encoding at m = 3 and m = 4: any change
    /// to the NXTR bytes the recorder writes fails here. Each sample
    /// also decodes and re-encodes to itself.
    #[test]
    fn encodings_are_pinned() {
        for (trace, pin) in [
            (two_tick_trace(), (226, 0x0e8c_d78e_694c_e6d1)),
            (two_tick_trace_m4(), (236, 0x0cc4_162b_8c5c_330b)),
        ] {
            let bytes = trace.encode();
            assert_eq!(
                (bytes.len(), crate::fnv1a64(&bytes)),
                pin,
                "NXTR with {} domains",
                trace.meta.n_domains
            );
            let back = TickTrace::decode(&bytes).expect("pinned trace decodes");
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let trace = two_tick_trace();
        let bytes = trace.encode();
        assert_eq!(bytes.len(), trace.encode().len(), "deterministic encoding");
        let back = TickTrace::decode(&bytes).expect("own encoding decodes");
        assert_eq!(back, trace);
        assert_eq!(back.encode(), bytes, "decode ∘ encode is a fixpoint");
    }

    #[test]
    fn record_wire_size_matches_encoder() {
        let trace = two_tick_trace();
        let empty = TickTrace {
            meta: trace.meta.clone(),
            records: Vec::new(),
        };
        let per_record = (trace.encode().len() - empty.encode().len()) / trace.records.len();
        assert_eq!(per_record, TickRecord::wire_size(3));
    }

    #[test]
    fn decode_rejects_malformed_input() {
        let trace = two_tick_trace();
        let bytes = trace.encode();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            TickTrace::decode(&bad_magic),
            Err(wire(WireErrorKind::BadMagic))
        );

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            TickTrace::decode(&bad_version),
            Err(wire(WireErrorKind::BadVersion {
                found: 99,
                expected: TRACE_VERSION
            }))
        );

        let mut bad_scenario = bytes.clone();
        bad_scenario[6] = 7;
        assert_eq!(
            TickTrace::decode(&bad_scenario),
            Err(TraceError::BadScenario(7))
        );

        let mut bad_domains = bytes.clone();
        bad_domains[7] = 200;
        assert_eq!(
            TickTrace::decode(&bad_domains),
            Err(TraceError::BadDomains(200))
        );

        assert_eq!(
            TickTrace::decode(&bytes[..bytes.len() - 1]),
            Err(wire(WireErrorKind::Truncated))
        );
        assert_eq!(TickTrace::decode(&[]), Err(wire(WireErrorKind::Truncated)));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            TickTrace::decode(&trailing),
            Err(wire(WireErrorKind::TrailingBytes(1)))
        );
    }

    /// A segment byte is 0 (gap) or 1 (session). Any other value is
    /// rejected: read as a session, it would re-encode as 1.
    #[test]
    fn unknown_segment_bytes_are_rejected() {
        let trace = two_tick_trace();
        let bytes = trace.encode();
        // The first record's segment byte follows its time_s.
        let segment = bytes.len() - trace.records.len() * TickRecord::wire_size(3) + 8;
        assert_eq!(bytes[segment], 0);
        for b in 2..=u8::MAX {
            let mut bad = bytes.clone();
            bad[segment] = b;
            assert_eq!(TickTrace::decode(&bad), Err(TraceError::BadSegment(b)));
        }
    }

    /// Every single-bit flip and every truncation of the m = 3 and m = 4
    /// samples, and inflated record counts and string lengths: decoding
    /// never panics, truncations and inflated lengths are rejected, and
    /// whatever decodes re-encodes to exactly its input.
    #[test]
    fn corrupted_bytes_never_panic() {
        let decodes_to_itself = |bytes: &[u8]| {
            if let Ok(trace) = TickTrace::decode(bytes) {
                assert_eq!(trace.encode(), bytes);
            }
        };
        for trace in [two_tick_trace(), two_tick_trace_m4()] {
            let bytes = trace.encode();
            for at in 0..bytes.len() {
                assert!(TickTrace::decode(&bytes[..at]).is_err(), "cut {at}");
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[at] ^= 1 << bit;
                    decodes_to_itself(&bad);
                }
            }
            let n = trace.records.len();
            let records_at =
                bytes.len() - n * TickRecord::wire_size(usize::from(trace.meta.n_domains));
            for count in [u64::from(u32::MAX), u64::MAX, n as u64 + 1] {
                let mut bad = bytes.clone();
                bad[records_at - 8..records_at].copy_from_slice(&count.to_le_bytes());
                assert_eq!(TickTrace::decode(&bad), Err(wire(WireErrorKind::Truncated)));
            }
            // The platform name's u16 length follows the 16-byte prefix.
            let name_len = trace.meta.platform.len() as u16;
            for len in [u16::MAX, name_len + 1] {
                let mut bad = bytes.clone();
                bad[16..18].copy_from_slice(&len.to_le_bytes());
                assert!(TickTrace::decode(&bad).is_err(), "platform length {len}");
            }
        }
    }

    #[test]
    fn null_sink_is_disabled_and_zero_sized() {
        assert!(!NullSink.enabled());
        assert_eq!(std::mem::size_of::<NullSink>(), 0);
    }

    #[test]
    fn bisect_reports_identical_traces_as_identical() {
        let trace = two_tick_trace();
        let report = bisect(&trace, &trace.clone());
        assert!(report.is_identical());
        assert!(report.render().contains("identical"));
    }

    #[test]
    fn bisect_finds_first_divergent_tick_and_field() {
        let a = two_tick_trace();
        let mut b = a.clone();
        b.records[1].fps = 60.0;
        b.records[1].power_w = 9.0;
        let report = bisect(&a, &b);
        assert!(report.meta_diffs.is_empty());
        let div = report.divergence.as_ref().expect("diverges");
        assert_eq!(div.tick, 1);
        let fields: Vec<&str> = div.fields.iter().map(|d| d.field).collect();
        assert_eq!(fields, ["fps", "power_w"]);
        assert!(report.render().contains("tick 1"));
    }

    #[test]
    fn bisect_treats_prefix_as_length_divergence() {
        let a = two_tick_trace();
        let mut b = a.clone();
        b.records.pop();
        let report = bisect(&a, &b);
        let div = report.divergence.as_ref().expect("length divergence");
        assert_eq!(div.tick, 1);
        assert!(div.fields.is_empty());
        assert!(report.render().contains("ends here"));
    }

    #[test]
    fn bisect_reports_meta_differences() {
        let a = two_tick_trace();
        let mut b = a.clone();
        b.meta.governor = "next".to_owned();
        let report = bisect(&a, &b);
        assert_eq!(report.meta_diffs.len(), 1);
        assert_eq!(report.meta_diffs[0].field, "governor");
        assert!(!report.is_identical());
    }
}
