//! Platform descriptors: the ordered list of DVFS domains a SoC
//! exposes, with their OPP tables, power models, thermal coupling and
//! role tags.
//!
//! The paper formulates Next for "`m` PE clusters with cluster-wise
//! DVFS" (§IV-B) and evaluates it on the Exynos 9810 (`m = 3`). A
//! [`Platform`] makes `m` a runtime property: every layer above —
//! execution planning, power, thermal, throttling, the RL action and
//! state spaces — derives its shape from the platform's domain list
//! instead of a hard-coded big/LITTLE/GPU triple. Two presets ship:
//!
//! * [`Platform::exynos9810`] — the paper's Galaxy Note 9 platform
//!   (big + LITTLE + GPU, `m = 3`, 9 actions),
//! * [`Platform::exynos9820`] — a Galaxy-S10-class tri-cluster CPU +
//!   GPU platform (big + mid + LITTLE + GPU, `m = 4`, 12 actions).
//!
//! These preset constructors are the only way to build a [`Platform`],
//! and they state each preset's facts once; they cannot fail. The
//! registry that names them is `simkit::PlatformPreset`, whose preset
//! test asserts, for every name it lists, what a validating constructor
//! would check: non-empty, strictly ascending ladders at positive
//! voltages, 1 to [`MAX_DOMAINS`] uniquely named domains with positive,
//! finite channel shares, a finite, non-negative base power, a hot
//! domain in range, and thermal nodes inside the network.

use std::fmt;
use std::ops::{Deref, DerefMut, Index, IndexMut};

use crate::freq::OppTable;
use crate::perf::Channel;
use crate::power::DomainPowerModel;
use crate::thermal::NodeId;

/// Upper bound on the number of DVFS domains a platform may declare.
///
/// Per-domain state travels in fixed-capacity [`PerDomain`] carriers so
/// the 25 ms simulation hot path stays allocation-free whatever `m` is;
/// eight covers every mobile SoC topology in sight (the paper's
/// platform uses three, the 9820-class preset four).
pub const MAX_DOMAINS: usize = 8;

/// Identifies one DVFS domain by its position in the platform's
/// ordered domain list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(u8);

impl DomainId {
    /// Creates an id from a domain index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_DOMAINS`.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(index < MAX_DOMAINS, "domain index {index} out of range");
        DomainId(index as u8)
    }

    /// The domain's position in the platform's domain list.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain {}", self.0)
    }
}

/// What kind of processing element a domain drives — the role tag the
/// frame pipeline uses to assemble its stages (CPU stages serialise,
/// the GPU stage overlaps them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainRole {
    /// A CPU cluster.
    Cpu,
    /// A GPU.
    Gpu,
}

/// One DVFS domain of a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSpec {
    /// Human-readable domain name (`"big"`, `"mid"`, `"little"`,
    /// `"gpu"`, …). Unique within a platform.
    pub name: String,
    /// Role tag (see [`DomainRole`]).
    pub role: DomainRole,
    /// Which workload channel loads this domain (see [`Channel`]).
    pub channel: Channel,
    /// Fraction of the channel's cycles this domain executes. Shares of
    /// one channel typically sum to 1 across the platform's domains.
    pub channel_share: f64,
    /// The domain's OPP ladder.
    pub table: OppTable,
    /// The domain's power model.
    pub power: DomainPowerModel,
    /// Thermal node carrying this domain's dissipated power (an index
    /// into the platform's thermal network).
    pub thermal_node: NodeId,
    /// Thermal-throttle trip temperature of this domain's die sensor,
    /// °C.
    pub trip_c: f64,
}

/// An ordered registry of the DVFS domains a SoC exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    name: String,
    domains: Vec<DomainSpec>,
    /// Constant platform power floor (display, DRAM, rails), watts.
    base_power_w: f64,
    /// The domain whose die sensor is the paper's `Temperature_big`
    /// observation — the designated hot spot.
    hot_domain: DomainId,
}

impl Platform {
    /// The platform's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of DVFS domains (`m`).
    #[must_use]
    pub fn n_domains(&self) -> usize {
        self.domains.len()
    }

    /// The ordered domain list.
    #[must_use]
    pub fn domains(&self) -> &[DomainSpec] {
        &self.domains
    }

    /// One domain's spec.
    #[must_use]
    pub fn domain(&self, id: DomainId) -> &DomainSpec {
        &self.domains[id.index()]
    }

    /// All domain ids in platform order.
    pub fn ids(&self) -> impl Iterator<Item = DomainId> + '_ {
        (0..self.domains.len()).map(DomainId::new)
    }

    /// Looks a domain up by name.
    #[must_use]
    pub fn domain_named(&self, name: &str) -> Option<DomainId> {
        self.domains
            .iter()
            .position(|d| d.name == name)
            .map(DomainId::new)
    }

    /// The designated hot-spot domain (the paper's `Temperature_big`
    /// sensor).
    #[must_use]
    pub fn hot_domain(&self) -> DomainId {
        self.hot_domain
    }

    /// Constant platform power floor, watts.
    #[must_use]
    pub fn base_power_w(&self) -> f64 {
        self.base_power_w
    }

    /// Scales the platform power floor (fleet silicon/power binning).
    /// The product is checked where a device is built:
    /// [`SocBatch::try_from_configs`](crate::SocBatch::try_from_configs)
    /// rejects a floor that is negative or not finite.
    pub fn scale_base_power(&mut self, k: f64) {
        self.base_power_w *= k;
    }

    /// OPP-ladder length of every domain, in platform order.
    #[must_use]
    pub fn freq_levels(&self) -> Vec<usize> {
        self.domains.iter().map(|d| d.table.len()).collect()
    }

    /// Size of the cluster-wise DVFS action space: `3m` (up / down /
    /// hold per domain, §IV-B).
    #[must_use]
    pub fn action_count(&self) -> usize {
        3 * self.domains.len()
    }

    /// Sum of every domain's top cap level — the normaliser of the
    /// agent's cap-headroom reward shaping.
    #[must_use]
    pub fn cap_level_sum(&self) -> usize {
        self.domains.iter().map(|d| d.table.len() - 1).sum()
    }

    /// The paper's Galaxy Note 9 platform: Exynos 9810 with big
    /// (4× Mongoose 3), LITTLE (4× A55) and GPU (Mali-G72 MP18) domains
    /// — `m = 3`, 9 actions, 0.9 W platform floor.
    ///
    /// Thermal nodes follow [`crate::thermal::ThermalConfig::exynos9810`]
    /// (domains on nodes 0–2, board 3, skin 4).
    #[must_use]
    pub fn exynos9810() -> Platform {
        let domains = vec![
            DomainSpec {
                name: "big".to_owned(),
                role: DomainRole::Cpu,
                channel: Channel::BigCpu,
                channel_share: 1.0,
                table: OppTable::exynos9810_big(),
                power: DomainPowerModel::exynos9810_big(),
                thermal_node: 0,
                trip_c: 75.0,
            },
            DomainSpec {
                name: "little".to_owned(),
                role: DomainRole::Cpu,
                channel: Channel::LittleCpu,
                channel_share: 1.0,
                table: OppTable::exynos9810_little(),
                power: DomainPowerModel::exynos9810_little(),
                thermal_node: 1,
                trip_c: 75.0,
            },
            DomainSpec {
                name: "gpu".to_owned(),
                role: DomainRole::Gpu,
                channel: Channel::Gpu,
                channel_share: 1.0,
                table: OppTable::exynos9810_gpu(),
                power: DomainPowerModel::exynos9810_gpu(),
                thermal_node: 2,
                trip_c: 71.0,
            },
        ];
        Platform {
            name: "exynos9810".to_owned(),
            domains,
            base_power_w: 0.9,
            hot_domain: DomainId::new(0),
        }
    }

    /// A Galaxy-S10-class tri-cluster-CPU + GPU platform in the Exynos
    /// 9820 mould: big (2× M4), mid (2× A75), LITTLE (4× A55) and GPU
    /// (Mali-G76 MP12) — `m = 4`, 12 actions.
    ///
    /// The big-CPU workload channel is split between the big and mid
    /// clusters (the way heavy render threads land on the prime cores
    /// while helper threads spill onto the middle cluster), so the
    /// existing application models drive the four-domain platform
    /// without recalibration. Thermal nodes follow
    /// [`crate::thermal::ThermalConfig::exynos9820`] (domains on nodes
    /// 0–3, board 4, skin 5).
    #[must_use]
    pub fn exynos9820() -> Platform {
        let domains = vec![
            DomainSpec {
                name: "big".to_owned(),
                role: DomainRole::Cpu,
                channel: Channel::BigCpu,
                channel_share: 0.65,
                table: OppTable::exynos9820_big(),
                power: DomainPowerModel::exynos9820_big(),
                thermal_node: 0,
                trip_c: 75.0,
            },
            DomainSpec {
                name: "mid".to_owned(),
                role: DomainRole::Cpu,
                channel: Channel::BigCpu,
                channel_share: 0.35,
                table: OppTable::exynos9820_mid(),
                power: DomainPowerModel::exynos9820_mid(),
                thermal_node: 1,
                trip_c: 75.0,
            },
            DomainSpec {
                name: "little".to_owned(),
                role: DomainRole::Cpu,
                channel: Channel::LittleCpu,
                channel_share: 1.0,
                table: OppTable::exynos9820_little(),
                power: DomainPowerModel::exynos9820_little(),
                thermal_node: 2,
                trip_c: 75.0,
            },
            DomainSpec {
                name: "gpu".to_owned(),
                role: DomainRole::Gpu,
                channel: Channel::Gpu,
                channel_share: 1.0,
                table: OppTable::exynos9820_gpu(),
                power: DomainPowerModel::exynos9820_gpu(),
                thermal_node: 3,
                trip_c: 71.0,
            },
        ];
        Platform {
            name: "exynos9820".to_owned(),
            domains,
            base_power_w: 0.9,
            hot_domain: DomainId::new(0),
        }
    }
}

/// Fixed-capacity per-domain value carrier: one `T` per platform
/// domain, stored inline so per-tick state stays `Copy` and
/// allocation-free for any `m ≤ MAX_DOMAINS`.
///
/// Dereferences to a slice of the live prefix, so indexing, iteration
/// and all slice methods work directly.
#[derive(Clone, Copy)]
pub struct PerDomain<T> {
    buf: [T; MAX_DOMAINS],
    len: u8,
}

impl<T: Copy + Default> PerDomain<T> {
    /// A carrier of `len` default values.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_DOMAINS`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len <= MAX_DOMAINS, "domain count {len} exceeds capacity");
        PerDomain {
            buf: [T::default(); MAX_DOMAINS],
            len: len as u8,
        }
    }

    /// A carrier holding a copy of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items.len() > MAX_DOMAINS`.
    #[must_use]
    pub fn from_slice(items: &[T]) -> Self {
        let mut out = PerDomain::new(items.len());
        out.buf[..items.len()].copy_from_slice(items);
        out
    }

    /// A carrier of `len` values produced by `f(index)`.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_DOMAINS`.
    #[must_use]
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let mut out = PerDomain::new(len);
        for i in 0..len {
            out.buf[i] = f(i);
        }
        out
    }

    /// Resets every live entry to `value`.
    pub fn fill_with(&mut self, value: T) {
        self.buf[..usize::from(self.len)].fill(value);
    }
}

impl<T> Deref for PerDomain<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[..usize::from(self.len)]
    }
}

impl<T> DerefMut for PerDomain<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[..usize::from(self.len)]
    }
}

impl<T, I: std::slice::SliceIndex<[T]>> Index<I> for PerDomain<T> {
    type Output = I::Output;

    fn index(&self, i: I) -> &I::Output {
        &(**self)[i]
    }
}

impl<T, I: std::slice::SliceIndex<[T]>> IndexMut<I> for PerDomain<T> {
    fn index_mut(&mut self, i: I) -> &mut I::Output {
        &mut (**self)[i]
    }
}

impl<T: fmt::Debug> fmt::Debug for PerDomain<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for PerDomain<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for PerDomain<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_domain_is_a_prefix_slice() {
        let mut p: PerDomain<u32> = PerDomain::from_slice(&[5, 6, 7]);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0], 5);
        assert_eq!(p[DomainId::new(2).index()], 7);
        p[1] = 60;
        assert_eq!(&p[..], &[5, 60, 7]);
        assert_eq!(p.iter().sum::<u32>(), 72);
        let q: PerDomain<u32> = PerDomain::from_fn(3, |i| [5, 60, 7][i]);
        assert_eq!(p, q);
        assert_ne!(p, PerDomain::from_slice(&[5, 60]));
    }

    #[test]
    fn per_domain_equality_ignores_spare_capacity() {
        let mut a: PerDomain<u32> = PerDomain::new(2);
        let mut b: PerDomain<u32> = PerDomain::new(4);
        b[2] = 99;
        b[3] = 98;
        let b2 = PerDomain::from_slice(&b[..2]);
        a[0] = 1;
        let mut c: PerDomain<u32> = PerDomain::new(2);
        c[0] = 1;
        assert_eq!(a, c);
        assert_eq!(b2.len(), 2);
        assert_eq!(&b2[..], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn per_domain_overflow_panics() {
        let _: PerDomain<u8> = PerDomain::new(MAX_DOMAINS + 1);
    }

    #[test]
    fn preset_platforms_have_expected_shapes() {
        let p = Platform::exynos9810();
        assert_eq!(p.n_domains(), 3);
        assert_eq!(p.action_count(), 9);
        assert_eq!(p.freq_levels(), vec![18, 10, 6]);
        assert_eq!(p.cap_level_sum(), 31);
        assert_eq!(p.hot_domain().index(), 0);
        assert_eq!(p.domain_named("gpu"), Some(DomainId::new(2)));
        assert_eq!(p.domain_named("mid"), None);

        let q = Platform::exynos9820();
        assert_eq!(q.n_domains(), 4);
        assert_eq!(q.action_count(), 12);
        assert_eq!(q.domain_named("mid"), Some(DomainId::new(1)));
        let shares: f64 = q
            .domains()
            .iter()
            .filter(|d| d.channel == Channel::BigCpu)
            .map(|d| d.channel_share)
            .sum();
        assert!((shares - 1.0).abs() < 1e-12, "big channel shares sum to 1");
    }
}
