//! Property-based tests of the Next agent's building blocks.

use proptest::prelude::*;

use mpsoc::platform::{PerDomain, Platform};
use mpsoc::soc::SocState;
use next_core::ppdw::{ppdw, PpdwBounds};
use next_core::{Action, FrameWindow, StateEncoder, StateSpace};

fn arb_soc_state() -> impl Strategy<Value = SocState> {
    (
        0.0..80.0f64,   // fps (can exceed 60 transiently)
        0.0..20.0f64,   // power
        15.0..110.0f64, // temp of the hot spot
        15.0..90.0f64,  // temp device
        0usize..18,
        0usize..10,
        0usize..6,
    )
        .prop_map(|(fps, power, th, td, lb, ll, lg)| SocState {
            time_s: 0.0,
            freq_khz: PerDomain::new(3),
            freq_level: PerDomain::from_slice(&[lb, ll, lg]),
            max_cap_level: PerDomain::from_slice(&[lb, ll, lg]),
            fps,
            power_w: power,
            temp_domain_c: PerDomain::from_slice(&[th, th - 2.0, th - 1.0]),
            temp_hot_c: th,
            temp_device_c: td,
            temp_battery_c: td - 1.0,
            util: PerDomain::from_fn(3, |_| 0.5),
        })
}

proptest! {
    /// Eq. 1 is always finite and non-negative, whatever the inputs.
    #[test]
    fn ppdw_always_finite_nonnegative(
        fps in -10.0..200.0f64,
        p in -5.0..50.0f64,
        t in -50.0..200.0f64,
        ambient in -10.0..45.0f64,
    ) {
        let v = ppdw(fps, p, t, ambient);
        prop_assert!(v.is_finite());
        prop_assert!(v >= 0.0);
    }

    /// PPDW is monotone: more FPS at the same cost never scores lower;
    /// more power or heat at the same FPS never scores higher.
    #[test]
    fn ppdw_monotone(
        fps in 1.0..60.0f64,
        dfps in 0.0..30.0f64,
        p in 0.5..15.0f64,
        dp in 0.0..5.0f64,
        t in 25.0..90.0f64,
        dt in 0.0..20.0f64,
    ) {
        let base = ppdw(fps, p, t, 21.0);
        prop_assert!(ppdw(fps + dfps, p, t, 21.0) >= base);
        prop_assert!(ppdw(fps, p + dp, t, 21.0) <= base);
        prop_assert!(ppdw(fps, p, t + dt, 21.0) <= base);
    }

    /// Both normalisations map into the unit interval and preserve
    /// order (Eq. 2's envelope semantics).
    #[test]
    fn normalizations_unit_interval_and_monotone(a in 0.0..100.0f64, b in 0.0..100.0f64) {
        let bounds = PpdwBounds::exynos9810();
        for v in [a, b] {
            prop_assert!((0.0..=1.0).contains(&bounds.normalize(v)));
            prop_assert!((0.0..1.0).contains(&bounds.soft_normalize(v)));
        }
        if a < b {
            prop_assert!(bounds.normalize(a) <= bounds.normalize(b));
            prop_assert!(bounds.soft_normalize(a) <= bounds.soft_normalize(b));
        }
    }

    /// The frame-window mode is always one of the retained samples and
    /// within the display range.
    #[test]
    fn window_mode_is_observed_sample(samples in proptest::collection::vec(0.0..70.0f64, 1..300)) {
        let mut w = FrameWindow::new(160);
        for &s in &samples {
            w.push(s);
        }
        let mode = w.mode().expect("non-empty window");
        prop_assert!(mode <= 60);
        prop_assert!(w.iter().any(|s| s == mode), "mode {mode} not among samples");
    }

    /// The mode is a true mode: no retained value occurs strictly more
    /// often.
    #[test]
    fn window_mode_maximises_count(samples in proptest::collection::vec(0u32..61, 1..200)) {
        let mut w = FrameWindow::new(160);
        for &s in &samples {
            w.push(f64::from(s));
        }
        let mode = w.mode().unwrap();
        let count_of = |v: u32| w.iter().filter(|&s| s == v).count();
        let mode_count = count_of(mode);
        for v in 0..=60 {
            prop_assert!(count_of(v) <= mode_count);
        }
    }

    /// State encoding is injective at bin resolution: decode(encode(x))
    /// reproduces every quantised digit.
    #[test]
    fn state_encoding_roundtrips(state in arb_soc_state(), target in 0.0..60.0f64) {
        let enc = StateEncoder::for_platform(&Platform::exynos9810(), 30).unwrap();
        let key = enc.encode(&state, target);
        let dec = enc.decode(key);
        prop_assert_eq!(&dec.freq_level[..], &state.max_cap_level[..]);
        prop_assert_eq!(dec.fps_bin, enc.fps_quantizer().index(state.fps));
        prop_assert_eq!(dec.target_bin, enc.fps_quantizer().index(target));
        prop_assert!(key < enc.state_space_size());
    }

    /// Distinct cap configurations never collide in the key space.
    #[test]
    fn distinct_caps_never_collide(
        s1 in arb_soc_state(),
        target in 0.0..60.0f64,
        bump in 1usize..5,
    ) {
        let enc = StateEncoder::for_platform(&Platform::exynos9810(), 30).unwrap();
        let mut s2 = s1;
        s2.max_cap_level[0] = (s1.max_cap_level[0] + bump) % 18;
        prop_assume!(s2.max_cap_level != s1.max_cap_level);
        prop_assert_ne!(enc.encode(&s1, target), enc.encode(&s2, target));
    }
}

// Satellite coverage for the platform-generic shapes: the mixed-radix
// state space stays bijective and the action indexing stays a
// round-trip for *any* domain count, not just the paper's `m = 3`.
proptest! {
    /// `StateSpace` flat-index encode/decode is a bijection for
    /// arbitrary domain counts and cardinalities (1..=6 domains).
    #[test]
    fn state_space_bijective_for_any_shape(
        dims in proptest::collection::vec(1usize..7, 1..7),
        probe in proptest::collection::vec(0u64..1_000_000, 8..9),
    ) {
        let space = StateSpace::new(&dims).expect("positive cardinalities");
        let size = space.size();
        prop_assert_eq!(size, dims.iter().map(|&d| d as u64).product::<u64>());
        // Sampled keys decode and re-encode to themselves...
        for &p in &probe {
            let key = p % size;
            let digits = space.unpack(key);
            for (d, r) in digits.iter().zip(dims.iter()) {
                prop_assert!(d < r);
            }
            prop_assert_eq!(space.flat_index(&digits), key);
        }
        // ...and for small spaces, exhaustively, with no collisions.
        if size <= 4096 {
            let mut seen = std::collections::HashSet::new();
            for key in 0..size {
                prop_assert!(seen.insert(space.flat_index(&space.unpack(key))));
            }
            prop_assert_eq!(seen.len() as u64, size);
        }
    }

    /// `Action::index` ↔ `Action::all` ordering round-trips for any
    /// platform size `m`, and the enumeration is exactly the index
    /// order.
    #[test]
    fn action_indexing_roundtrips_for_any_m(m in 1usize..9) {
        let all: Vec<Action> = Action::all(m).collect();
        prop_assert_eq!(all.len(), Action::count(m));
        for (i, a) in all.iter().enumerate() {
            prop_assert_eq!(a.index(), i);
            prop_assert_eq!(Action::from_index(i, m), *a);
            prop_assert!(a.domain.index() < m);
        }
        // Every (domain, direction) pair appears exactly once.
        let distinct: std::collections::HashSet<_> =
            all.iter().map(|a| (a.domain, a.direction)).collect();
        prop_assert_eq!(distinct.len(), 3 * m);
    }
}
