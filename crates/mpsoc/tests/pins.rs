//! Byte pins of the tick kernel's physics.
//!
//! Every field of the final [`SocState`] of a long throttling run is
//! compared bit for bit against values captured from the original
//! scalar kernel, so a change to the floating-point sequence of a tick
//! (selection, throttle, execution, power or thermal) cannot go
//! unnoticed even though there is only one tick implementation to
//! compare against.

use mpsoc::perf::FrameDemand;
use mpsoc::throttle::ThrottleConfig;
use mpsoc::{DomainId, Soc, SocConfig, SocState};

/// Every field of `state`, in declaration order, as raw bits.
fn state_bits(state: &SocState) -> Vec<u64> {
    let mut bits = vec![state.time_s.to_bits()];
    bits.extend(state.freq_khz.iter().map(|&khz| u64::from(khz)));
    bits.extend(state.freq_level.iter().map(|&l| l as u64));
    bits.extend(state.max_cap_level.iter().map(|&l| l as u64));
    bits.push(state.fps.to_bits());
    bits.push(state.power_w.to_bits());
    bits.extend(state.temp_domain_c.iter().map(|t| t.to_bits()));
    bits.push(state.temp_hot_c.to_bits());
    bits.push(state.temp_device_c.to_bits());
    bits.push(state.temp_battery_c.to_bits());
    bits.extend(state.util.iter().map(|u| u.to_bits()));
    bits
}

/// 40 °C trips, every domain pinned to its top OPP, 8 000 ticks (200
/// simulated seconds) of a heavy game: the clamp engages, walks down
/// and oscillates around the trip point.
#[test]
fn throttling_run_final_state_is_pinned() {
    let mut cfg = SocConfig::exynos9810();
    cfg.throttle = ThrottleConfig {
        enabled: true,
        trip_c: vec![40.0, 40.0, 40.0],
        hysteresis_c: 3.0,
    };
    let tops: Vec<_> = cfg
        .platform
        .domains()
        .iter()
        .map(|d| d.table.len() - 1)
        .collect();
    let mut soc = Soc::new(cfg);
    for (i, &top) in tops.iter().enumerate() {
        soc.dvfs_mut().domain_mut(DomainId::new(i)).pin_level(top);
    }
    let demand = FrameDemand::new(22.0e6, 6.0e6, 30.0e6).with_background(0.3e9, 0.1e9, 0.0);
    for _ in 0..8_000 {
        soc.tick(0.025, &demand);
    }
    assert_eq!(state_bits(&soc.state()), PINNED);
}

/// The final state of [`throttling_run_final_state_is_pinned`].
const PINNED: &[u64] = &[
    0x4069_0000_0000_03e5, // time_s
    2_704_000,             // freq_khz
    1_794_000,
    338_000,
    17, // freq_level
    9,
    2,
    17, // max_cap_level
    9,
    5,
    0x4027_ffff_ffff_ffff, // fps
    0x4011_6f3f_a83c_75b3, // power_w
    0x4043_6314_53fd_63c8, // temp_domain_c
    0x4041_d2fd_473d_03d3,
    0x4043_4502_66c3_d6f6,
    0x4043_6314_53fd_63c8, // temp_hot_c
    0x403f_a0c3_1cf6_4812, // temp_device_c
    0x4040_9a2e_11ed_2d5c, // temp_battery_c
    0x3fc9_ef3c_7da0_7792, // util
    0x3fb7_ea89_ca00_cc92,
    0x3ff0_0000_0000_0000,
];
