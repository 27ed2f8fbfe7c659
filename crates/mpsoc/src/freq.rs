//! Operating-performance-point (OPP) tables and frequency-domain state.
//!
//! Each DVFS domain of a platform exposes one frequency ladder. The
//! Exynos 9810 ladders below are the exact ones listed in §III-A of the
//! paper:
//!
//! * big (Mongoose 3 × 4): 18 levels, 650–2704 MHz,
//! * LITTLE (Cortex-A55 × 4): 10 levels, 455–1794 MHz,
//! * GPU (Mali-G72 MP18): 6 levels, 260–572 MHz;
//!
//! the `exynos9820_*` ladders describe the Galaxy-S10-class tri-cluster
//! preset (see [`crate::platform::Platform::exynos9820`]).
//!
//! The ladders are compiled-in `const` MHz arrays, each asserted at
//! compile time to be non-empty and strictly ascending, and no other
//! code builds an [`OppTable`]; the preset test of `simkit::platform`
//! checks every ladder the platform registry names. Code names a
//! frequency by its ladder level, and no level can leave the ladder:
//! every level setter of a [`FreqDomain`] saturates at its top, so none
//! can fail. The `maxfreq`/`minfreq` caps (each of Next's actions moves
//! one cap one level, §IV-B) and the governor-set current level are
//! also clamped into the policy range; only the throttler's override
//! ignores it. [`OppTable::opp`] reads a level as `slice::get` does,
//! with `None` past the top.

/// Frequency in kilohertz, the unit Linux cpufreq sysfs uses.
pub type KiloHertz = u32;

/// One operating performance point: a frequency and the supply voltage
/// the rail needs at that frequency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Opp {
    /// Clock frequency in kHz.
    pub freq_khz: KiloHertz,
    /// Supply voltage in volts.
    pub volt_v: f64,
}

impl Opp {
    /// Creates an OPP.
    #[must_use]
    pub fn new(freq_khz: KiloHertz, volt_v: f64) -> Self {
        Opp { freq_khz, volt_v }
    }

    /// Frequency in Hz as a float, convenient for cycle-budget math.
    #[must_use]
    pub fn freq_hz(&self) -> f64 {
        f64::from(self.freq_khz) * 1e3
    }
}

/// An ordered table of OPPs for one DVFS domain (ascending by
/// frequency), labelled with the domain's name for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    name: String,
    opps: Vec<Opp>,
}

impl OppTable {
    /// Synthesises a table from a strictly ascending frequency ladder
    /// (in MHz) and a linear V-f curve between `v_min` (slowest OPP)
    /// and `v_max` (fastest OPP).
    ///
    /// The paper lists frequencies but not voltages; commercial mobile
    /// SoCs use close-to-linear V-f curves across the usable range, so a
    /// linear interpolation preserves the convexity of `P(f) ∝ V²f` that
    /// the DVFS trade-off depends on.
    ///
    /// Only the compiled-in ladders below reach this, so it checks
    /// nothing: each of them asserts `is_ladder` at compile time, and
    /// the preset test over the platform registry asserts that every
    /// shipped ladder is non-empty, strictly ascending and at positive
    /// voltages.
    pub(crate) fn from_mhz_ladder(name: &str, mhz: &[u32], v_min: f64, v_max: f64) -> Self {
        let lo = f64::from(mhz[0]);
        let hi = f64::from(mhz[mhz.len() - 1]);
        let span = (hi - lo).max(1.0);
        let opps = mhz
            .iter()
            .map(|&m| {
                let t = (f64::from(m) - lo) / span;
                Opp::new(m * 1000, v_min + t * (v_max - v_min))
            })
            .collect();
        OppTable {
            name: name.to_owned(),
            opps,
        }
    }

    /// The name of the domain this table belongs to.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of frequency levels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.opps.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.opps.is_empty()
    }

    /// The OPP at `level` (0 = slowest), or `None` past the top of the
    /// ladder.
    #[must_use]
    pub fn opp(&self, level: usize) -> Option<Opp> {
        self.opps.get(level).copied()
    }

    /// Slowest OPP.
    #[must_use]
    pub fn min(&self) -> Opp {
        self.opps[0]
    }

    /// Fastest OPP.
    #[must_use]
    pub fn max(&self) -> Opp {
        self.opps[self.opps.len() - 1]
    }

    /// Iterator over the OPPs, ascending by frequency.
    pub fn iter(&self) -> impl Iterator<Item = &Opp> + '_ {
        self.opps.iter()
    }

    /// The paper's 18-level big-cluster (Mongoose 3) ladder.
    #[must_use]
    pub fn exynos9810_big() -> Self {
        const MHZ: [u32; 18] = [
            650, 741, 858, 962, 1066, 1170, 1261, 1469, 1586, 1690, 1794, 1924, 2002, 2106, 2314,
            2496, 2652, 2704,
        ];
        const _: () = assert!(is_ladder(&MHZ));
        OppTable::from_mhz_ladder("big", &MHZ, 0.568, 1.092)
    }

    /// The paper's 10-level LITTLE-cluster (Cortex-A55) ladder.
    #[must_use]
    pub fn exynos9810_little() -> Self {
        const MHZ: [u32; 10] = [455, 598, 715, 832, 949, 1053, 1248, 1456, 1690, 1794];
        const _: () = assert!(is_ladder(&MHZ));
        OppTable::from_mhz_ladder("little", &MHZ, 0.531, 0.988)
    }

    /// The paper's 6-level GPU (Mali-G72 MP18) ladder.
    #[must_use]
    pub fn exynos9810_gpu() -> Self {
        const MHZ: [u32; 6] = [260, 299, 338, 455, 546, 572];
        const _: () = assert!(is_ladder(&MHZ));
        OppTable::from_mhz_ladder("gpu", &MHZ, 0.581, 0.862)
    }

    /// The 9820-class 16-level big-cluster (2× Exynos M4) ladder.
    #[must_use]
    pub fn exynos9820_big() -> Self {
        const MHZ: [u32; 16] = [
            520, 650, 754, 858, 962, 1066, 1170, 1352, 1560, 1664, 1820, 1976, 2106, 2314, 2496,
            2730,
        ];
        const _: () = assert!(is_ladder(&MHZ));
        OppTable::from_mhz_ladder("big", &MHZ, 0.558, 1.100)
    }

    /// The 9820-class 12-level middle-cluster (2× Cortex-A75) ladder.
    #[must_use]
    pub fn exynos9820_mid() -> Self {
        const MHZ: [u32; 12] = [
            520, 650, 754, 858, 1066, 1170, 1352, 1560, 1742, 1950, 2158, 2310,
        ];
        const _: () = assert!(is_ladder(&MHZ));
        OppTable::from_mhz_ladder("mid", &MHZ, 0.540, 1.020)
    }

    /// The 9820-class 9-level LITTLE-cluster (4× Cortex-A55) ladder.
    #[must_use]
    pub fn exynos9820_little() -> Self {
        const MHZ: [u32; 9] = [442, 598, 754, 910, 1053, 1248, 1456, 1690, 1950];
        const _: () = assert!(is_ladder(&MHZ));
        OppTable::from_mhz_ladder("little", &MHZ, 0.525, 0.975)
    }

    /// The 9820-class 9-level GPU (Mali-G76 MP12) ladder.
    #[must_use]
    pub fn exynos9820_gpu() -> Self {
        const MHZ: [u32; 9] = [260, 325, 377, 433, 481, 545, 598, 650, 702];
        const _: () = assert!(is_ladder(&MHZ));
        OppTable::from_mhz_ladder("gpu", &MHZ, 0.575, 0.880)
    }
}

/// Whether `mhz` can be a ladder: non-empty and strictly ascending.
/// Every compiled-in ladder asserts this in a `const` item, so a ladder
/// literal that is empty, out of order or repeats a frequency does not
/// build.
const fn is_ladder(mhz: &[u32]) -> bool {
    let mut i = 1;
    while i < mhz.len() {
        if mhz[i - 1] >= mhz[i] {
            return false;
        }
        i += 1;
    }
    !mhz.is_empty()
}

/// Mutable frequency-domain state of one DVFS domain: its OPP table
/// plus the governor-visible `minfreq`/`maxfreq` caps and the current
/// level.
///
/// Setting a tighter cap clamps the current level into
/// `[min_level, max_level]` immediately, mirroring how the kernel's
/// cpufreq core re-evaluates the policy when limits change. Only the
/// hardware override ([`FreqDomain::force_level`], the thermal
/// throttler's clamp) may leave it below the floor.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqDomain {
    table: OppTable,
    min_level: usize,
    max_level: usize,
    cur_level: usize,
}

impl FreqDomain {
    /// Creates a domain with the full OPP range available and the current
    /// frequency at the slowest level.
    #[must_use]
    pub fn new(table: OppTable) -> Self {
        let max_level = table.len() - 1;
        FreqDomain {
            table,
            min_level: 0,
            max_level,
            cur_level: 0,
        }
    }

    /// The name of the domain this ladder drives.
    #[must_use]
    pub fn name(&self) -> &str {
        self.table.name()
    }

    /// The underlying OPP table.
    #[must_use]
    pub fn table(&self) -> &OppTable {
        &self.table
    }

    /// Current OPP.
    #[must_use]
    pub fn current(&self) -> Opp {
        self.table.opps[self.cur_level]
    }

    /// Current level index (0 = slowest).
    #[must_use]
    pub fn current_level(&self) -> usize {
        self.cur_level
    }

    /// Lower policy cap as an OPP.
    #[must_use]
    pub fn min_cap(&self) -> Opp {
        self.table.opps[self.min_level]
    }

    /// Upper policy cap as an OPP.
    #[must_use]
    pub fn max_cap(&self) -> Opp {
        self.table.opps[self.max_level]
    }

    /// Upper policy cap level index.
    #[must_use]
    pub fn max_cap_level(&self) -> usize {
        self.max_level
    }

    /// Lower policy cap level index.
    #[must_use]
    pub fn min_cap_level(&self) -> usize {
        self.min_level
    }

    /// Sets the current level, clamped into the policy range (whose
    /// top is at most the top of the ladder, so a level past it
    /// saturates there).
    pub fn set_level(&mut self, level: usize) {
        self.cur_level = level.clamp(self.min_level, self.max_level);
    }

    /// Hardware override: sets the current level ignoring the policy
    /// caps, saturating at the top of the ladder (used by the thermal
    /// throttler, which outranks software policy exactly as the kernel
    /// thermal framework outranks userspace governors).
    pub fn force_level(&mut self, level: usize) {
        self.cur_level = level.min(self.table.len() - 1);
    }

    /// Sets the `maxfreq` policy cap to `level`, saturating at the top
    /// of the ladder and clamped to no lower than the `minfreq` cap.
    /// The current level is clamped under the new cap.
    pub fn set_max_level(&mut self, level: usize) {
        self.max_level = level.min(self.table.len() - 1).max(self.min_level);
        self.cur_level = self.cur_level.min(self.max_level);
    }

    /// Sets the `minfreq` policy cap to `level`, clamped to no higher
    /// than the `maxfreq` cap. The current level is raised to the new
    /// floor.
    pub fn set_min_level(&mut self, level: usize) {
        self.min_level = level.min(self.max_level);
        self.cur_level = self.cur_level.max(self.min_level);
    }

    /// Pins the domain to one OPP by collapsing both caps and the
    /// current level onto `level`, saturating at the top of the ladder
    /// (what a direct-frequency governor such as Int. QoS PM does).
    pub fn pin_level(&mut self, level: usize) {
        let level = level.min(self.table.len() - 1);
        self.min_level = level;
        self.max_level = level;
        self.cur_level = level;
    }

    /// Moves the `maxfreq` cap one ladder step up, saturating at the top.
    /// Returns the new cap.
    pub fn step_max_up(&mut self) -> Opp {
        self.max_level = (self.max_level + 1).min(self.table.len() - 1);
        self.max_cap()
    }

    /// Moves the `maxfreq` cap one ladder step down, saturating at the
    /// `minfreq` cap. Returns the new cap. The current level is clamped.
    pub fn step_max_down(&mut self) -> Opp {
        self.max_level = self.max_level.saturating_sub(1).max(self.min_level);
        self.cur_level = self.cur_level.min(self.max_level);
        self.max_cap()
    }

    /// Resets both caps to the full table range.
    pub fn reset_caps(&mut self) {
        self.min_level = 0;
        self.max_level = self.table.len() - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ladders_have_exact_sizes_and_ranges() {
        let big = OppTable::exynos9810_big();
        assert_eq!(big.len(), 18);
        assert_eq!(big.min().freq_khz, 650_000);
        assert_eq!(big.max().freq_khz, 2_704_000);

        let little = OppTable::exynos9810_little();
        assert_eq!(little.len(), 10);
        assert_eq!(little.min().freq_khz, 455_000);
        assert_eq!(little.max().freq_khz, 1_794_000);

        let gpu = OppTable::exynos9810_gpu();
        assert_eq!(gpu.len(), 6);
        assert_eq!(gpu.min().freq_khz, 260_000);
        assert_eq!(gpu.max().freq_khz, 572_000);
    }

    #[test]
    fn exynos9820_ladders_have_expected_shapes() {
        let big = OppTable::exynos9820_big();
        assert_eq!(big.len(), 16);
        assert_eq!(big.max().freq_khz, 2_730_000);
        let mid = OppTable::exynos9820_mid();
        assert_eq!(mid.len(), 12);
        assert_eq!(mid.max().freq_khz, 2_310_000);
        let little = OppTable::exynos9820_little();
        assert_eq!(little.len(), 9);
        assert_eq!(little.max().freq_khz, 1_950_000);
        let gpu = OppTable::exynos9820_gpu();
        assert_eq!(gpu.len(), 9);
        assert_eq!(gpu.max().freq_khz, 702_000);
    }

    #[test]
    fn voltages_rise_with_frequency() {
        for table in [
            OppTable::exynos9810_big(),
            OppTable::exynos9810_little(),
            OppTable::exynos9810_gpu(),
            OppTable::exynos9820_big(),
            OppTable::exynos9820_mid(),
            OppTable::exynos9820_little(),
            OppTable::exynos9820_gpu(),
        ] {
            let volts: Vec<f64> = table.iter().map(|o| o.volt_v).collect();
            for pair in volts.windows(2) {
                assert!(
                    pair[1] > pair[0],
                    "voltage must rise with frequency in {table:?}"
                );
            }
        }
    }

    #[test]
    fn empty_and_unsorted_tables_rejected() {
        assert!(!is_ladder(&[]));
        assert!(!is_ladder(&[2_000, 1_000]));
        assert!(!is_ladder(&[1_000, 1_000]));
        assert!(is_ladder(&[1_000]));
        assert!(is_ladder(&[1_000, 2_000]));
    }

    #[test]
    fn domain_caps_clamp_current_level() {
        let mut dom = FreqDomain::new(OppTable::exynos9810_big());
        dom.set_level(17);
        assert_eq!(dom.current().freq_khz, 2_704_000);
        dom.set_max_level(10);
        assert_eq!(
            dom.current().freq_khz,
            1_794_000,
            "current must clamp to new cap"
        );
        dom.set_level(99);
        assert_eq!(
            dom.current().freq_khz,
            1_794_000,
            "requests above cap clamp"
        );
        dom.force_level(99);
        assert_eq!(
            dom.current_level(),
            17,
            "the override ignores the cap and saturates at the top"
        );
        assert_eq!(dom.table().opp(17), Some(dom.current()));
        assert_eq!(dom.table().opp(18), None, "no OPP past the top");
    }

    #[test]
    fn domain_min_cap_raises_current() {
        let mut dom = FreqDomain::new(OppTable::exynos9810_little());
        assert_eq!(dom.current().freq_khz, 455_000);
        dom.set_min_level(4);
        assert_eq!(dom.current().freq_khz, 949_000);
    }

    #[test]
    fn inverted_ranges_rejected() {
        let mut dom = FreqDomain::new(OppTable::exynos9810_little());
        dom.set_max_level(4);
        dom.set_min_level(9);
        assert_eq!(dom.min_cap().freq_khz, 949_000, "floor clamps to the cap");
        dom.set_max_level(0);
        assert_eq!(dom.max_cap().freq_khz, 949_000, "cap clamps to the floor");
        dom.set_max_level(99);
        assert_eq!(
            dom.max_cap().freq_khz,
            1_794_000,
            "cap saturates at the top"
        );
        dom.pin_level(99);
        assert_eq!(
            (
                dom.min_cap_level(),
                dom.max_cap_level(),
                dom.current_level()
            ),
            (9, 9, 9),
            "a pin saturates at the top"
        );
    }

    #[test]
    fn step_max_saturates() {
        let mut dom = FreqDomain::new(OppTable::exynos9810_gpu());
        for _ in 0..20 {
            dom.step_max_down();
        }
        assert_eq!(dom.max_cap().freq_khz, 260_000);
        for _ in 0..20 {
            dom.step_max_up();
        }
        assert_eq!(dom.max_cap().freq_khz, 572_000);
    }

    #[test]
    fn step_max_down_respects_min_cap() {
        let mut dom = FreqDomain::new(OppTable::exynos9810_gpu());
        dom.set_min_level(2);
        for _ in 0..10 {
            dom.step_max_down();
        }
        assert_eq!(dom.max_cap().freq_khz, 338_000);
    }

    #[test]
    fn reset_caps_restores_full_range() {
        let mut dom = FreqDomain::new(OppTable::exynos9810_big());
        dom.set_max_level(3);
        dom.set_min_level(2);
        dom.reset_caps();
        assert_eq!(dom.min_cap().freq_khz, 650_000);
        assert_eq!(dom.max_cap().freq_khz, 2_704_000);
    }

    #[test]
    fn tables_carry_domain_names() {
        assert_eq!(OppTable::exynos9810_big().name(), "big");
        assert_eq!(OppTable::exynos9820_mid().name(), "mid");
        assert_eq!(FreqDomain::new(OppTable::exynos9810_gpu()).name(), "gpu");
    }
}
