//! Power model: switching (dynamic) power plus temperature-dependent
//! leakage, per DVFS domain, with a constant platform floor for the
//! rails the governor cannot influence (display, memory, modem).
//!
//! Dynamic power follows the standard CMOS model `P = C_eff · V² · f ·
//! u`, where `u ∈ [0, 1]` is the domain utilisation over the interval.
//! Leakage grows linearly with die temperature around the ambient
//! reference, which captures the positive power-temperature feedback that
//! makes peak-temperature reduction valuable (§I, §III-B of the paper).

use crate::freq::Opp;

/// Power model parameters for one DVFS domain. The domain's identity is
/// positional: each [`crate::platform::DomainSpec`] carries its model,
/// and the platform adds its base power as the floor. The `Default`
/// model is all-zero (no dynamic or leakage power).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DomainPowerModel {
    /// Effective switched capacitance in farads.
    ceff_f: f64,
    /// Leakage at the reference temperature, per volt (W/V).
    leak_w_per_v: f64,
    /// Fractional leakage increase per °C above the reference.
    leak_temp_coeff: f64,
    /// Reference temperature for the leakage linearisation, °C.
    leak_ref_c: f64,
}

impl DomainPowerModel {
    /// Creates a model from raw coefficients.
    #[must_use]
    pub fn new(ceff_f: f64, leak_w_per_v: f64, leak_temp_coeff: f64, leak_ref_c: f64) -> Self {
        DomainPowerModel {
            ceff_f,
            leak_w_per_v,
            leak_temp_coeff,
            leak_ref_c,
        }
    }

    /// Switching power at operating point `opp` and utilisation `util`
    /// (clamped to `[0, 1]`), in watts.
    #[must_use]
    pub fn dynamic_w(&self, opp: Opp, util: f64) -> f64 {
        let util = util.clamp(0.0, 1.0);
        self.ceff_f * opp.volt_v * opp.volt_v * opp.freq_hz() * util
    }

    /// Leakage power at operating point `opp` and die temperature
    /// `temp_c`, in watts. Never negative.
    #[must_use]
    pub fn leakage_w(&self, opp: Opp, temp_c: f64) -> f64 {
        let scale = 1.0 + self.leak_temp_coeff * (temp_c - self.leak_ref_c);
        (self.leak_w_per_v * opp.volt_v * scale).max(0.0)
    }

    /// Total domain power (dynamic + leakage), in watts.
    #[must_use]
    pub fn total_w(&self, opp: Opp, util: f64, temp_c: f64) -> f64 {
        self.dynamic_w(opp, util) + self.leakage_w(opp, temp_c)
    }

    /// Calibration used for the Exynos 9810 big cluster (4× Mongoose 3).
    ///
    /// Chosen so that the fully-loaded cluster at 2704 MHz draws ≈6.5 W
    /// and ≈0.45 W of leakage at 45 °C, in line with published Exynos
    /// 9810 measurements.
    #[must_use]
    pub fn exynos9810_big() -> Self {
        DomainPowerModel::new(2.0e-9, 0.28, 0.012, 25.0)
    }

    /// Calibration used for the Exynos 9810 LITTLE cluster (4× A55).
    #[must_use]
    pub fn exynos9810_little() -> Self {
        DomainPowerModel::new(4.6e-10, 0.06, 0.010, 25.0)
    }

    /// Calibration used for the Mali-G72 MP18 GPU.
    #[must_use]
    pub fn exynos9810_gpu() -> Self {
        DomainPowerModel::new(1.05e-8, 0.20, 0.011, 25.0)
    }

    /// 9820-class big cluster (2× M4): two wide cores on a newer node —
    /// lower capacitance than the 9810's four Mongoose cores at a
    /// similar peak frequency.
    #[must_use]
    pub fn exynos9820_big() -> Self {
        DomainPowerModel::new(1.45e-9, 0.24, 0.012, 25.0)
    }

    /// 9820-class middle cluster (2× A75).
    #[must_use]
    pub fn exynos9820_mid() -> Self {
        DomainPowerModel::new(7.2e-10, 0.10, 0.011, 25.0)
    }

    /// 9820-class LITTLE cluster (4× A55).
    #[must_use]
    pub fn exynos9820_little() -> Self {
        DomainPowerModel::new(4.2e-10, 0.055, 0.010, 25.0)
    }

    /// 9820-class GPU (Mali-G76 MP12).
    #[must_use]
    pub fn exynos9820_gpu() -> Self {
        DomainPowerModel::new(8.6e-9, 0.18, 0.011, 25.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::OppTable;
    use crate::platform::Platform;

    /// Whole-platform power with every domain fully loaded at its top
    /// OPP: the domain models' totals in platform order, then the
    /// platform floor.
    fn peak_platform_w(platform: &Platform, temps_c: &[f64]) -> f64 {
        let domains: f64 = platform
            .domains()
            .iter()
            .zip(temps_c)
            .map(|(d, &t)| d.power.total_w(d.table.max(), 1.0, t))
            .sum();
        domains + platform.base_power_w()
    }

    fn max_opp(table: &OppTable) -> Opp {
        table.max()
    }

    #[test]
    fn big_cluster_peak_power_in_plausible_range() {
        let model = DomainPowerModel::exynos9810_big();
        let opp = max_opp(&OppTable::exynos9810_big());
        let p = model.total_w(opp, 1.0, 45.0);
        assert!((4.0..9.0).contains(&p), "big peak power {p} W implausible");
    }

    #[test]
    fn little_cluster_much_cheaper_than_big() {
        let big = DomainPowerModel::exynos9810_big();
        let little = DomainPowerModel::exynos9810_little();
        let pb = big.total_w(max_opp(&OppTable::exynos9810_big()), 1.0, 40.0);
        let pl = little.total_w(max_opp(&OppTable::exynos9810_little()), 1.0, 40.0);
        assert!(
            pl < pb / 4.0,
            "LITTLE ({pl} W) should be far cheaper than big ({pb} W)"
        );
    }

    #[test]
    fn dynamic_power_monotonic_in_frequency() {
        let model = DomainPowerModel::exynos9810_big();
        let table = OppTable::exynos9810_big();
        let powers: Vec<f64> = table.iter().map(|&o| model.dynamic_w(o, 1.0)).collect();
        for pair in powers.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    fn dynamic_power_superlinear_in_frequency() {
        // P ∝ V²f with V rising in f ⇒ doubling f more than doubles P.
        let model = DomainPowerModel::exynos9810_big();
        let table = OppTable::exynos9810_big();
        let lo = table.min();
        let hi = table.max();
        let ratio_f = hi.freq_hz() / lo.freq_hz();
        let ratio_p = model.dynamic_w(hi, 1.0) / model.dynamic_w(lo, 1.0);
        assert!(
            ratio_p > ratio_f * 1.5,
            "power ratio {ratio_p} vs freq ratio {ratio_f}"
        );
    }

    #[test]
    fn util_clamps() {
        let model = DomainPowerModel::exynos9810_gpu();
        let opp = max_opp(&OppTable::exynos9810_gpu());
        assert_eq!(model.dynamic_w(opp, 2.0), model.dynamic_w(opp, 1.0));
        assert_eq!(model.dynamic_w(opp, -1.0), 0.0);
    }

    #[test]
    fn leakage_grows_with_temperature_and_never_negative() {
        let model = DomainPowerModel::exynos9810_big();
        let opp = max_opp(&OppTable::exynos9810_big());
        let cold = model.leakage_w(opp, 0.0);
        let warm = model.leakage_w(opp, 40.0);
        let hot = model.leakage_w(opp, 90.0);
        assert!(cold < warm && warm < hot);
        assert!(model.leakage_w(opp, -500.0) >= 0.0);
    }

    #[test]
    fn full_platform_peak_power_matches_paper_scale() {
        // Fig. 3 shows schedutil peaks well above 10 W on heavy load.
        let peak = peak_platform_w(&Platform::exynos9810(), &[70.0, 60.0, 65.0]);
        assert!(
            (9.0..18.0).contains(&peak),
            "platform peak {peak} W outside the paper's observed scale"
        );
    }

    #[test]
    fn exynos9820_peak_power_plausible_for_a_flagship() {
        let platform = Platform::exynos9820();
        let peak = peak_platform_w(&platform, &vec![65.0; platform.n_domains()]);
        assert!(
            (8.0..18.0).contains(&peak),
            "9820 peak {peak} W implausible"
        );
    }
}
