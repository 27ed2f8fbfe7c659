//! Lumped RC (compact) thermal network of the phone.
//!
//! Thermal nodes model the handset: one node per PE-cluster die region,
//! plus the board (PCB + battery mass) and the skin (back glass +
//! frame), coupled by thermal conductances and each with a heat
//! capacity. Heat escapes only through the skin-to-ambient conductance,
//! so sustained power raises every node — the thermal inertia the
//! paper's peak-temperature experiments (Figs. 3 and 8) rely on.
//!
//! The network is integrated with forward Euler using automatic
//! sub-stepping chosen from the smallest node time constant, so a step
//! is unconditionally stable for any caller-supplied `dt`.
//!
//! Sensor layout follows §III-A: per-die sensors (which node carries
//! which DVFS domain is declared by the [`crate::platform::Platform`]),
//! a battery sensor on the board node, and a "virtual sensor" for the
//! overall device, computed from board and skin temperatures with a
//! documented surrogate of the manufacturer's proprietary formula.

use crate::{Error, Result};

/// Index of a thermal node in the network.
pub type NodeId = usize;

/// The ambient temperature of the paper's experiments: a
/// thermostat-controlled 21 °C room (§V). Every preset and default in
/// the workspace derives its ambient from this single constant.
pub const DEFAULT_AMBIENT_C: f64 = 21.0;

/// Configuration of one thermal node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Human-readable node name (for diagnostics).
    pub name: String,
    /// Heat capacity in J/K. Must be positive.
    pub capacitance_j_per_k: f64,
    /// Conductance from this node directly to ambient, in W/K
    /// (0 for internal nodes).
    pub to_ambient_w_per_k: f64,
}

/// A conductive link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeConfig {
    /// First node.
    pub a: NodeId,
    /// Second node.
    pub b: NodeId,
    /// Conductance in W/K. Must be positive.
    pub conductance_w_per_k: f64,
}

/// Immutable description of a thermal network.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Thermal nodes.
    pub nodes: Vec<NodeConfig>,
    /// Conductive links.
    pub edges: Vec<EdgeConfig>,
    /// Ambient temperature in °C.
    pub ambient_c: f64,
    /// Node representing the board/battery mass (the battery sensor,
    /// and the sink for the constant platform-floor power).
    pub board_node: NodeId,
    /// Node representing the device skin.
    pub skin_node: NodeId,
}

/// Node indices of the Exynos 9810 preset network.
pub mod node {
    use super::NodeId;
    /// Big CPU cluster die region.
    pub const BIG: NodeId = 0;
    /// LITTLE CPU cluster die region.
    pub const LITTLE: NodeId = 1;
    /// GPU die region.
    pub const GPU: NodeId = 2;
    /// Board + battery mass.
    pub const BOARD: NodeId = 3;
    /// Device skin (back glass + frame).
    pub const SKIN: NodeId = 4;
    /// Number of nodes in the preset.
    pub const COUNT: usize = 5;
}

impl ThermalConfig {
    /// The calibrated five-node Note 9 network at the given ambient
    /// temperature (the paper's experiments use a thermostat-controlled
    /// 21 °C room — see [`DEFAULT_AMBIENT_C`]).
    #[must_use]
    pub fn exynos9810(ambient_c: f64) -> Self {
        let nodes = vec![
            NodeConfig {
                name: "big".to_owned(),
                capacitance_j_per_k: 3.0,
                to_ambient_w_per_k: 0.0,
            },
            NodeConfig {
                name: "little".to_owned(),
                capacitance_j_per_k: 2.5,
                to_ambient_w_per_k: 0.0,
            },
            NodeConfig {
                name: "gpu".to_owned(),
                capacitance_j_per_k: 3.5,
                to_ambient_w_per_k: 0.0,
            },
            NodeConfig {
                name: "board".to_owned(),
                capacitance_j_per_k: 35.0,
                to_ambient_w_per_k: 0.0,
            },
            NodeConfig {
                name: "skin".to_owned(),
                capacitance_j_per_k: 55.0,
                to_ambient_w_per_k: 0.42,
            },
        ];
        let edges = vec![
            EdgeConfig {
                a: node::BIG,
                b: node::BOARD,
                conductance_w_per_k: 0.20,
            },
            EdgeConfig {
                a: node::LITTLE,
                b: node::BOARD,
                conductance_w_per_k: 0.35,
            },
            EdgeConfig {
                a: node::GPU,
                b: node::BOARD,
                conductance_w_per_k: 0.25,
            },
            EdgeConfig {
                a: node::BIG,
                b: node::LITTLE,
                conductance_w_per_k: 0.15,
            },
            EdgeConfig {
                a: node::BIG,
                b: node::GPU,
                conductance_w_per_k: 0.12,
            },
            EdgeConfig {
                a: node::LITTLE,
                b: node::GPU,
                conductance_w_per_k: 0.10,
            },
            EdgeConfig {
                a: node::BOARD,
                b: node::SKIN,
                conductance_w_per_k: 0.60,
            },
        ];
        ThermalConfig {
            nodes,
            edges,
            ambient_c,
            board_node: node::BOARD,
            skin_node: node::SKIN,
        }
    }

    /// A six-node network for the 9820-class preset: four die regions
    /// (big, mid, LITTLE, GPU on nodes 0–3) plus board (4) and skin (5),
    /// with a vapour-chamber-class spread (the S10 generation couples
    /// the die regions to the board slightly better than the Note 9).
    #[must_use]
    pub fn exynos9820(ambient_c: f64) -> Self {
        const BOARD: NodeId = 4;
        const SKIN: NodeId = 5;
        let die = |name: &str, cap: f64| NodeConfig {
            name: name.to_owned(),
            capacitance_j_per_k: cap,
            to_ambient_w_per_k: 0.0,
        };
        let nodes = vec![
            die("big", 2.6),
            die("mid", 2.4),
            die("little", 2.5),
            die("gpu", 3.4),
            NodeConfig {
                name: "board".to_owned(),
                capacitance_j_per_k: 36.0,
                to_ambient_w_per_k: 0.0,
            },
            NodeConfig {
                name: "skin".to_owned(),
                capacitance_j_per_k: 56.0,
                to_ambient_w_per_k: 0.45,
            },
        ];
        let mut edges = vec![
            EdgeConfig {
                a: 0,
                b: BOARD,
                conductance_w_per_k: 0.24,
            },
            EdgeConfig {
                a: 1,
                b: BOARD,
                conductance_w_per_k: 0.30,
            },
            EdgeConfig {
                a: 2,
                b: BOARD,
                conductance_w_per_k: 0.36,
            },
            EdgeConfig {
                a: 3,
                b: BOARD,
                conductance_w_per_k: 0.28,
            },
            EdgeConfig {
                a: BOARD,
                b: SKIN,
                conductance_w_per_k: 0.64,
            },
        ];
        // Die-to-die spreading on the shared silicon.
        for (a, b, g) in [(0, 1, 0.16), (1, 2, 0.14), (0, 3, 0.12), (2, 3, 0.10)] {
            edges.push(EdgeConfig {
                a,
                b,
                conductance_w_per_k: g,
            });
        }
        ThermalConfig {
            nodes,
            edges,
            ambient_c,
            board_node: BOARD,
            skin_node: SKIN,
        }
    }

    /// Checks the network for physical sense. Every comparison is
    /// written so that a NaN parameter fails it.
    pub(crate) fn validate(&self) -> Result<()> {
        if !self.ambient_c.is_finite() {
            return Err(Error::InvalidConfig(format!(
                "ambient temperature must be finite, got {}",
                self.ambient_c
            )));
        }
        if self.nodes.is_empty() {
            return Err(Error::InvalidConfig(
                "thermal network has no nodes".to_owned(),
            ));
        }
        for n in &self.nodes {
            if !(n.capacitance_j_per_k > 0.0 && n.capacitance_j_per_k.is_finite()) {
                return Err(Error::InvalidConfig(format!(
                    "node '{}' needs a finite positive capacitance, got {}",
                    n.name, n.capacitance_j_per_k
                )));
            }
            if !(n.to_ambient_w_per_k >= 0.0 && n.to_ambient_w_per_k.is_finite()) {
                return Err(Error::InvalidConfig(format!(
                    "node '{}' needs a finite non-negative ambient conductance, got {}",
                    n.name, n.to_ambient_w_per_k
                )));
            }
        }
        for e in &self.edges {
            if e.a >= self.nodes.len() || e.b >= self.nodes.len() || e.a == e.b {
                return Err(Error::InvalidConfig(format!(
                    "edge {}-{} references invalid nodes",
                    e.a, e.b
                )));
            }
            if !(e.conductance_w_per_k > 0.0 && e.conductance_w_per_k.is_finite()) {
                return Err(Error::InvalidConfig(format!(
                    "edge {}-{} needs a finite positive conductance, got {}",
                    e.a, e.b, e.conductance_w_per_k
                )));
            }
        }
        if self.board_node >= self.nodes.len() || self.skin_node >= self.nodes.len() {
            return Err(Error::InvalidConfig(
                "board/skin node out of range".to_owned(),
            ));
        }
        // Every node needs an edge path to a node that conducts to
        // ambient: heat injected anywhere else has no way out. Spread
        // "drains" along the edges until nothing changes.
        let mut drains: Vec<bool> = self
            .nodes
            .iter()
            .map(|n| n.to_ambient_w_per_k > 0.0)
            .collect();
        let mut spreading = true;
        while spreading {
            spreading = false;
            for e in &self.edges {
                if drains[e.a] != drains[e.b] {
                    drains[e.a] = true;
                    drains[e.b] = true;
                    spreading = true;
                }
            }
        }
        if let Some(i) = drains.iter().position(|&d| !d) {
            return Err(Error::InvalidConfig(format!(
                "node {i} '{}' has no path to ambient: its temperature would grow without bound",
                self.nodes[i].name
            )));
        }
        Ok(())
    }
}

/// The virtual whole-device sensor, °C, from the skin and board
/// temperatures and the hottest die node.
///
/// A surrogate for the manufacturer's proprietary virtual sensor: a
/// weighted blend `0.45·skin + 0.35·board + 0.20·max(die)`, which tracks
/// "how hot the device feels plus how hot the silicon runs" just like
/// vendor skin-temperature estimators.
pub(crate) fn virtual_sensor_c(skin_c: f64, board_c: f64, die_max_c: f64) -> f64 {
    0.45 * skin_c + 0.35 * board_c + 0.20 * die_max_c
}

/// Largest forward-Euler step that keeps every node of `config` stable,
/// in seconds. Stability requires `dt < C_i / ΣG_i` for every node; this
/// returns half of the tightest bound.
pub(crate) fn max_stable_dt(config: &ThermalConfig) -> f64 {
    let mut max_stable_dt_s = f64::INFINITY;
    for (i, n) in config.nodes.iter().enumerate() {
        let mut g_sum = n.to_ambient_w_per_k;
        for e in &config.edges {
            if e.a == i || e.b == i {
                g_sum += e.conductance_w_per_k;
            }
        }
        if g_sum > 0.0 {
            max_stable_dt_s = max_stable_dt_s.min(0.5 * n.capacitance_j_per_k / g_sum);
        }
    }
    max_stable_dt_s
}

/// Forward-Euler sub-steps for a step of `dt_s` seconds: the step count
/// and the sub-step length `h`, with `steps · h = dt_s` and `h` no
/// longer than `max_stable_dt_s`. A step that is not positive takes no
/// sub-steps.
pub(crate) fn substeps(max_stable_dt_s: f64, dt_s: f64) -> (usize, f64) {
    if dt_s <= 0.0 {
        return (0, 0.0);
    }
    let steps = (dt_s / max_stable_dt_s).ceil().max(1.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let steps_usize = if steps.is_finite() { steps as usize } else { 1 };
    (steps_usize, dt_s / steps)
}

/// The width-parameterised forward-Euler kernel: advances `width` lanes
/// sharing one network *structure* (nodes/edges) by `steps` sub-steps of
/// `h` seconds (see [`substeps`]).
///
/// `temps_c`, `power_w` and the `flux` scratch are node-major,
/// lane-contiguous arrays indexed `node * width + lane`, each at least
/// `nodes * width` long; `ambient_c` has one entry per lane (ambient may
/// differ across lanes — fleet bins).
///
/// Every lane performs exactly the floating-point operation sequence of
/// the width-1 path, in the same order — batching is a pure interleaving
/// across lanes and is bit-invisible in the results. This is the single
/// thermal physics implementation; [`crate::batch::SocBatch`] calls it
/// at every width.
#[inline]
pub(crate) fn step_lanes(
    config: &ThermalConfig,
    width: usize,
    temps_c: &mut [f64],
    power_w: &[f64],
    ambient_c: &[f64],
    flux: &mut [f64],
    (steps, h): (usize, f64),
) {
    // Lanes outermost: at the widths the simulator runs (one device, or
    // a day's few governors) this beats per-node lane slices, whose
    // short vectorised loops cost more to enter than they save.
    for _ in 0..steps {
        for (lane, &t_amb) in ambient_c[..width].iter().enumerate() {
            // Each node's own terms accumulate in a register, from zero:
            // `0.0 + P − G·(T − T_amb)`. The edges then add their flows.
            for (i, node) in config.nodes.iter().enumerate() {
                let k = i * width + lane;
                let mut acc = 0.0;
                acc += power_w[k];
                acc -= node.to_ambient_w_per_k * (temps_c[k] - t_amb);
                flux[k] = acc;
            }
            for e in &config.edges {
                let (a, b) = (e.a * width + lane, e.b * width + lane);
                let q = e.conductance_w_per_k * (temps_c[a] - temps_c[b]);
                flux[a] -= q;
                flux[b] += q;
            }
            for (i, node) in config.nodes.iter().enumerate() {
                let k = i * width + lane;
                temps_c[k] += h * flux[k] / node.capacitance_j_per_k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DIE: [NodeId; 3] = [node::BIG, node::LITTLE, node::GPU];

    fn powers(big: f64, little: f64, gpu: f64, board: f64) -> [f64; 5] {
        [big, little, gpu, board, 0.0]
    }

    /// One device's network advanced by `step_lanes` at width 1: the
    /// validated config, its stable step and the node temperatures.
    struct Net {
        config: ThermalConfig,
        max_stable_dt_s: f64,
        temps_c: Vec<f64>,
    }

    impl Net {
        fn new(config: ThermalConfig) -> Net {
            config.validate().expect("valid thermal config");
            let max_stable_dt_s = max_stable_dt(&config);
            let temps_c = vec![config.ambient_c; config.nodes.len()];
            Net {
                config,
                max_stable_dt_s,
                temps_c,
            }
        }

        fn exynos9810(ambient_c: f64) -> Net {
            Net::new(ThermalConfig::exynos9810(ambient_c))
        }

        fn step(&mut self, power_w: &[f64], dt_s: f64) {
            let mut flux = vec![0.0; self.temps_c.len()];
            step_lanes(
                &self.config,
                1,
                &mut self.temps_c,
                power_w,
                &[self.config.ambient_c],
                &mut flux,
                substeps(self.max_stable_dt_s, dt_s),
            );
        }

        fn board_c(&self) -> f64 {
            self.temps_c[self.config.board_node]
        }

        fn skin_c(&self) -> f64 {
            self.temps_c[self.config.skin_node]
        }

        /// The virtual device sensor over the `die` nodes.
        fn device_c(&self, die: &[NodeId]) -> f64 {
            let die_max = die
                .iter()
                .map(|&n| self.temps_c[n])
                .fold(f64::MIN, f64::max);
            virtual_sensor_c(self.skin_c(), self.board_c(), die_max)
        }
    }

    #[test]
    fn starts_at_ambient() {
        let net = Net::exynos9810(21.0);
        for &t in &net.temps_c {
            assert!((t - 21.0).abs() < 1e-12);
        }
        assert!((net.device_c(&DIE) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn heating_raises_big_above_board_above_skin() {
        let mut net = Net::exynos9810(21.0);
        net.step(&powers(5.0, 0.4, 2.0, 0.9), 120.0);
        let big = net.temps_c[node::BIG];
        let board = net.temps_c[node::BOARD];
        let skin = net.temps_c[node::SKIN];
        assert!(big > board, "big {big} should exceed board {board}");
        assert!(board > skin, "board {board} should exceed skin {skin}");
        assert!(skin > 21.0);
        assert_eq!(net.board_c(), board);
        assert_eq!(net.skin_c(), skin);
    }

    #[test]
    fn cooling_returns_to_ambient() {
        let mut net = Net::exynos9810(21.0);
        net.step(&powers(6.0, 0.5, 4.0, 0.9), 300.0);
        assert!(net.temps_c[node::BIG] > 30.0);
        net.step(&[0.0; 5], 5_000.0);
        for &t in &net.temps_c {
            assert!(
                (t - 21.0).abs() < 0.5,
                "node stuck at {t} °C after cooldown"
            );
        }
    }

    #[test]
    fn steady_state_heavy_load_matches_paper_scale() {
        // Sustained gaming power: big cluster peak temps in the paper sit
        // in the 50–75 °C band at 21 °C ambient.
        let mut net = Net::exynos9810(21.0);
        net.step(&powers(5.5, 0.5, 4.0, 0.9), 1_800.0);
        let big = net.temps_c[node::BIG];
        assert!(
            (45.0..90.0).contains(&big),
            "steady big temp {big} °C out of band"
        );
    }

    #[test]
    fn exynos9820_network_is_valid_and_behaves() {
        let mut net = Net::new(ThermalConfig::exynos9820(21.0));
        assert_eq!(net.temps_c.len(), 6);
        net.step(&[4.0, 1.5, 0.5, 3.0, 0.9, 0.0], 1_200.0);
        let dev = net.device_c(&[0, 1, 2, 3]);
        assert!(net.temps_c[0] > net.board_c());
        assert!(net.board_c() > net.skin_c());
        assert!(dev > net.skin_c() * 0.99 && dev < net.temps_c[0]);
    }

    #[test]
    fn step_is_stable_for_large_dt() {
        let mut net = Net::exynos9810(21.0);
        net.step(&powers(6.5, 0.8, 4.5, 0.9), 10_000.0);
        for &t in &net.temps_c {
            assert!(t.is_finite());
            assert!((21.0..200.0).contains(&t), "temperature diverged: {t}");
        }
    }

    #[test]
    fn zero_or_negative_dt_is_noop() {
        let mut net = Net::exynos9810(21.0);
        let before = net.temps_c.clone();
        net.step(&powers(5.0, 1.0, 2.0, 1.0), 0.0);
        net.step(&powers(5.0, 1.0, 2.0, 1.0), -3.0);
        assert_eq!(net.temps_c, before);
    }

    #[test]
    fn device_sensor_between_skin_and_die() {
        let mut net = Net::exynos9810(21.0);
        net.step(&powers(6.0, 0.5, 3.0, 0.9), 600.0);
        let dev = net.device_c(&DIE);
        let skin = net.temps_c[node::SKIN];
        let big = net.temps_c[node::BIG];
        assert!(
            dev > skin * 0.99,
            "device sensor should not read below skin"
        );
        assert!(dev < big, "device sensor should read below the hot spot");
    }

    #[test]
    fn ambient_change_shifts_equilibrium() {
        let mut cold = Net::exynos9810(10.0);
        let mut warm = Net::exynos9810(35.0);
        let p = powers(3.0, 0.5, 1.0, 0.9);
        cold.step(&p, 2_000.0);
        warm.step(&p, 2_000.0);
        assert!(warm.temps_c[node::BIG] > cold.temps_c[node::BIG] + 20.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ThermalConfig::exynos9810(21.0);
        cfg.nodes[0].capacitance_j_per_k = -1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ThermalConfig::exynos9810(21.0);
        cfg.edges[0].a = 99;
        assert!(cfg.validate().is_err());

        let mut cfg = ThermalConfig::exynos9810(21.0);
        for n in &mut cfg.nodes {
            n.to_ambient_w_per_k = 0.0;
        }
        assert!(cfg.validate().is_err(), "no ambient path must be rejected");

        let mut cfg = ThermalConfig::exynos9810(21.0);
        cfg.board_node = 17;
        assert!(
            cfg.validate().is_err(),
            "dangling board node must be rejected"
        );

        let empty = ThermalConfig {
            nodes: vec![],
            edges: vec![],
            ambient_c: 21.0,
            board_node: 0,
            skin_node: 0,
        };
        assert!(empty.validate().is_err());
    }

    /// Every node must reach a node with an ambient conductance over
    /// the edges; the error names the first node that cannot.
    #[test]
    fn nodes_without_a_path_to_ambient_are_rejected() {
        // Nodes (name, ambient conductance) added to the 9810 network as
        // nodes 5, 6, …, the edges added, and the node the error names.
        type Case = (
            &'static [(&'static str, f64)],
            &'static [(NodeId, NodeId)],
            Option<&'static str>,
        );
        let cases: [Case; 6] = [
            (&[], &[], None),
            (&[("loose", 0.0)], &[], Some("node 5 'loose'")),
            (
                &[("isle", 0.0), ("isle-b", 0.0)],
                &[(5, 6)],
                Some("node 5 'isle'"),
            ),
            (&[("vented", 0.1)], &[], None),
            (
                &[("a", 0.0), ("b", 0.0), ("vent", 0.2)],
                &[(5, 6), (6, 7)],
                None,
            ),
            (&[("shield", 0.0)], &[(5, node::GPU)], None),
        ];
        for (nodes, edges, rejected) in cases {
            let mut cfg = ThermalConfig::exynos9810(21.0);
            cfg.nodes.extend(nodes.iter().map(|&(name, g)| NodeConfig {
                name: name.to_owned(),
                capacitance_j_per_k: 2.0,
                to_ambient_w_per_k: g,
            }));
            cfg.edges.extend(edges.iter().map(|&(a, b)| EdgeConfig {
                a,
                b,
                conductance_w_per_k: 0.3,
            }));
            match (cfg.validate(), rejected) {
                (Ok(()), None) => {}
                (Err(Error::InvalidConfig(msg)), Some(name)) => {
                    assert!(msg.contains(name), "{nodes:?}: must name {name}: {msg}");
                    assert!(msg.contains("no path to ambient"), "{nodes:?}: {msg}");
                }
                (got, want) => panic!("{nodes:?} {edges:?}: got {got:?}, want {want:?}"),
            }
        }
        // Without the skin's ambient conductance nothing drains.
        let mut cfg = ThermalConfig::exynos9810(21.0);
        cfg.nodes[node::SKIN].to_ambient_w_per_k = 0.0;
        let err = cfg.validate().expect_err("no ambient path").to_string();
        assert!(err.contains("node 0 'big' has no path to ambient"), "{err}");
    }

    #[test]
    fn reset_restores_ambient() {
        // Ambient everywhere with no power is a fixed point of the step,
        // bit for bit: a heated network put back at ambient stays there.
        let mut net = Net::exynos9810(21.0);
        net.step(&powers(6.0, 1.0, 4.0, 1.0), 500.0);
        net.temps_c.fill(21.0);
        net.step(&[0.0; 5], 500.0);
        for &t in &net.temps_c {
            assert_eq!(t, 21.0);
        }
    }

    #[test]
    fn energy_conservation_adiabatic() {
        // With no path to ambient the injected energy must equal the
        // stored energy Σ C·ΔT; verify directly on a custom network with
        // tiny ambient conductance.
        let cfg = ThermalConfig {
            nodes: vec![
                NodeConfig {
                    name: "a".into(),
                    capacitance_j_per_k: 10.0,
                    to_ambient_w_per_k: 1e-9,
                },
                NodeConfig {
                    name: "b".into(),
                    capacitance_j_per_k: 20.0,
                    to_ambient_w_per_k: 0.0,
                },
            ],
            edges: vec![EdgeConfig {
                a: 0,
                b: 1,
                conductance_w_per_k: 0.5,
            }],
            ambient_c: 20.0,
            board_node: 1,
            skin_node: 1,
        };
        let mut net = Net::new(cfg);
        let p = 2.0; // W into node a
        let dt = 50.0;
        net.step(&[p, 0.0], dt);
        let stored = 10.0 * (net.temps_c[0] - 20.0) + 20.0 * (net.temps_c[1] - 20.0);
        let injected = p * dt;
        assert!(
            (stored - injected).abs() / injected < 1e-3,
            "stored {stored} J vs injected {injected} J"
        );
    }

    proptest! {
        /// The thermal network never cools below ambient and never
        /// diverges, for any non-negative heat injection and step size.
        #[test]
        fn thermal_stays_above_ambient_and_finite(
            p_big in 0.0..8.0f64,
            p_little in 0.0..2.0f64,
            p_gpu in 0.0..6.0f64,
            p_board in 0.0..2.0f64,
            dt in 0.001..50.0f64,
            steps in 1usize..60,
        ) {
            let mut net = Net::exynos9810(21.0);
            for _ in 0..steps {
                net.step(&[p_big, p_little, p_gpu, p_board, 0.0], dt);
            }
            for &t in &net.temps_c {
                prop_assert!(t.is_finite());
                prop_assert!(t >= 21.0 - 1e-9, "node below ambient: {t}");
                prop_assert!(t < 500.0, "node diverged: {t}");
            }
        }

        /// Monotonicity: strictly more heat never yields a cooler hot spot.
        #[test]
        fn thermal_monotone_in_power(p in 0.0..6.0f64, extra in 0.1..4.0f64) {
            let mut a = Net::exynos9810(21.0);
            let mut b = Net::exynos9810(21.0);
            a.step(&[p, 0.3, 0.5, 0.9, 0.0], 300.0);
            b.step(&[p + extra, 0.3, 0.5, 0.9, 0.0], 300.0);
            prop_assert!(b.temps_c[0] > a.temps_c[0]);
        }
    }
}
