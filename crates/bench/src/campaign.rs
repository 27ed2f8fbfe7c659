//! `campaign.json` rendering — the campaign document of
//! `next-sim campaign` — plus the JSON interchange encoding of a
//! Q-table the binary codec's size claim is measured against.
//!
//! A schema-versioned document (see
//! [`crate::json::parse_document`]). Everything rendered here is a
//! pure function of the [`CampaignReport`] — no wall clock — so a
//! campaign document is **byte-identical** for a fixed config across
//! worker counts, machines, and kill/resume points. Exact-integer fields (byte totals, visit counts) go through
//! [`Json::num_u64`], so counts past 2^53 survive digit for digit.

use qlearn::{QStore, QTable};
use simkit::campaign::{CampaignReport, CohortSummary};

use crate::json::{Json, SCHEMA_VERSION};

fn cohort_json(cohort: &CohortSummary) -> Json {
    let metrics = cohort
        .metrics
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::str(m.name)),
                ("min".into(), Json::num(m.min)),
                ("max".into(), Json::num(m.max)),
                ("mean".into(), Json::num(m.mean)),
                ("p50".into(), Json::num(m.p50)),
                ("p90".into(), Json::num(m.p90)),
                ("p99".into(), Json::num(m.p99)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("persona".into(), Json::str(&cohort.persona)),
        ("platform".into(), Json::str(&cohort.platform)),
        ("bin".into(), Json::str(&cohort.bin)),
        ("count".into(), Json::num_u64(cohort.count)),
        ("metrics".into(), Json::Arr(metrics)),
    ])
}

/// Renders a finished campaign as a schema-v7 document.
#[must_use]
pub fn campaign_to_json(report: &CampaignReport, mode: &str) -> Json {
    let cfg = &report.config;
    let config = Json::Obj(vec![
        ("devices".into(), Json::num(cfg.devices as f64)),
        ("rounds".into(), Json::num(cfg.rounds as f64)),
        // Seeds are full-range u64s; they travel as strings (the
        // convention predates Json::num_u64 and is frozen).
        ("seed".into(), Json::str(cfg.seed.to_string())),
        ("shard_size".into(), Json::num(cfg.shard_size as f64)),
        (
            "platforms".into(),
            Json::Arr(cfg.platforms.iter().map(Json::str).collect()),
        ),
        (
            "plan".into(),
            Json::Obj(vec![
                ("pickups".into(), Json::num(f64::from(cfg.plan.pickups))),
                ("day_length_s".into(), Json::num(cfg.plan.day_length_s)),
                ("session_scale".into(), Json::num(cfg.plan.session_scale)),
                ("min_session_s".into(), Json::num(cfg.plan.min_session_s)),
            ]),
        ),
        ("gap_tick_s".into(), Json::num(cfg.gap_tick_s)),
        ("train_budget_s".into(), Json::num(cfg.train_budget_s)),
        (
            "battery".into(),
            Json::Obj(vec![
                ("capacity_mah".into(), Json::num(cfg.battery.capacity_mah)),
                ("nominal_v".into(), Json::num(cfg.battery.nominal_v)),
            ]),
        ),
        (
            "link".into(),
            Json::Obj(vec![
                ("uplink_s".into(), Json::num(cfg.link.uplink_s)),
                ("downlink_s".into(), Json::num(cfg.link.downlink_s)),
            ]),
        ),
    ]);
    let rounds = report
        .rounds
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("round".into(), Json::num(r.round as f64)),
                ("uplink_bytes".into(), Json::num_u64(r.uplink_bytes)),
                ("downlink_bytes".into(), Json::num_u64(r.downlink_bytes)),
                ("comm_s".into(), Json::num(r.comm_s)),
                ("states".into(), Json::num_u64(r.states)),
                ("visits".into(), Json::num_u64(r.visits)),
                ("table_bytes".into(), Json::num_u64(r.table_bytes)),
                (
                    "dense_clone_bytes".into(),
                    Json::num_u64(r.dense_clone_bytes),
                ),
            ])
        })
        .collect();
    let cohorts = report.cohorts.iter().map(cohort_json).collect();
    let tables = report
        .tables
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("platform".into(), Json::str(&t.platform)),
                ("app".into(), Json::str(&t.app)),
                ("states".into(), Json::num_u64(t.states)),
                ("visits".into(), Json::num_u64(t.visits)),
                ("bytes".into(), Json::num_u64(t.encoded.len() as u64)),
            ])
        })
        .collect();
    let campaign = Json::Obj(vec![
        ("config".into(), config),
        ("rounds_log".into(), Json::Arr(rounds)),
        ("cohorts".into(), Json::Arr(cohorts)),
        ("tables".into(), Json::Arr(tables)),
        (
            "totals".into(),
            Json::Obj(vec![
                ("device_days".into(), Json::num_u64(report.device_days())),
                (
                    "uplink_bytes".into(),
                    Json::num_u64(report.total_uplink_bytes()),
                ),
                (
                    "downlink_bytes".into(),
                    Json::num_u64(report.total_downlink_bytes()),
                ),
            ]),
        ),
    ]);
    Json::Obj(vec![
        ("schema".into(), Json::num(f64::from(SCHEMA_VERSION))),
        ("harness".into(), Json::str("next-sim campaign")),
        ("mode".into(), Json::str(mode)),
        ("campaign".into(), campaign),
    ])
}

/// The JSON interchange encoding of a Q-table: one self-describing
/// record per *visited* cell — the same information content the binary
/// `NXQT` codec carries, in the shape a generic JSON pipeline would
/// exchange it. This is the honest denominator of the codec's size
/// claim: both encodings list visited cells only, with full-precision
/// values.
#[must_use]
pub fn table_json_cells<S: QStore>(table: &QTable<S>) -> Json {
    let mut cells = Vec::new();
    for state in table.state_keys() {
        let values = table.values(state);
        for (action, &q) in values.iter().enumerate() {
            let visits = table.visits(state, action);
            if visits == 0 {
                continue;
            }
            cells.push(Json::Obj(vec![
                ("state".into(), Json::num_u64(state)),
                ("action".into(), Json::num(action as f64)),
                ("q".into(), Json::num(q)),
                ("visits".into(), Json::num_u64(visits)),
            ]));
        }
    }
    Json::Arr(cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_document;
    use qlearn::{encode_table, DenseQTable};
    use simkit::campaign::{run_campaign, CampaignConfig};

    fn tiny_report() -> CampaignReport {
        let mut config = CampaignConfig::quick(4, 2, 77);
        config.shard_size = 3;
        run_campaign(&config, 2)
    }

    #[test]
    fn campaign_document_is_a_render_parse_fixpoint() {
        let report = tiny_report();
        let doc = campaign_to_json(&report, "test");
        let text = doc.render();
        let parsed = parse_document(&text).expect("own rendering parses");
        let campaign = parsed.get("campaign").expect("campaign section present");
        assert_eq!(parsed.render(), text, "render ∘ parse must be a fixpoint");
        let config = campaign.get("config").expect("config");
        assert_eq!(config.get("devices").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            config.get("seed").and_then(Json::as_str),
            Some("77"),
            "seeds travel as strings"
        );
        let rounds = campaign
            .get("rounds_log")
            .and_then(Json::as_array)
            .expect("rounds_log");
        assert_eq!(rounds.len(), 2);
        for round in rounds {
            assert!(round.get("uplink_bytes").and_then(Json::as_u64).unwrap() > 0);
            assert!(round.get("comm_s").and_then(Json::as_f64).unwrap() > 0.0);
            let table_bytes = round.get("table_bytes").and_then(Json::as_u64).unwrap();
            let dense = round
                .get("dense_clone_bytes")
                .and_then(Json::as_u64)
                .unwrap();
            assert!(
                0 < table_bytes && table_bytes < dense,
                "overlay working set ({table_bytes} B) must undercut dense clones ({dense} B)"
            );
        }
        // Cohort counts add up to device-days.
        let cohorts = campaign
            .get("cohorts")
            .and_then(Json::as_array)
            .expect("cohorts");
        let total: u64 = cohorts
            .iter()
            .map(|c| c.get("count").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(total, 8, "4 devices x 2 rounds");
        // Non-empty cohorts carry ordered quantiles.
        for cohort in cohorts {
            if cohort.get("count").and_then(Json::as_u64).unwrap() == 0 {
                continue;
            }
            let metrics = cohort
                .get("metrics")
                .and_then(Json::as_array)
                .expect("metrics");
            assert_eq!(metrics.len(), 4);
            for m in metrics {
                let min = m.get("min").and_then(Json::as_f64).unwrap();
                let p50 = m.get("p50").and_then(Json::as_f64).unwrap();
                let p99 = m.get("p99").and_then(Json::as_f64).unwrap();
                let max = m.get("max").and_then(Json::as_f64).unwrap();
                assert!(min <= p50 && p50 <= p99 && p99 <= max, "{m:?}");
            }
        }
        let tables = campaign
            .get("tables")
            .and_then(Json::as_array)
            .expect("tables");
        assert!(!tables.is_empty());
        for t in tables {
            assert!(t.get("bytes").and_then(Json::as_u64).unwrap() > 0);
        }
    }

    /// Builds a populated paper-space-sized table with full-mantissa
    /// values and realistic visit counts: the codec's size claim is
    /// measured on data with no artificial compressibility (every f64
    /// uses its full mantissa, every cell is visited a plausible
    /// handful-to-hundreds of times).
    fn populated_paper_table() -> DenseQTable {
        // The paper's Exynos 9810 space: 12 actions (4 OPPs x 3
        // domains collapsed to the agent's action set is platform
        // specific; 12 is representative), a few thousand visited
        // states.
        let actions = 12;
        let states = 3_000u64;
        let mut table = DenseQTable::dense_for_space(actions, 0.0, states);
        for s in 0..states {
            for a in 0..actions {
                // sin() fills the whole mantissa — nothing about the
                // value pattern favours either encoding.
                let v = (f64::from(u32::try_from(s).expect("small")) * 0.731 + a as f64 * 1.137)
                    .sin()
                    * 8.0;
                // `set` counts one visit per call; vary the count the
                // way visit histograms actually look (many cells a few
                // visits, some cells hundreds).
                let visits = 1 + ((s * 31 + a as u64 * 7) % 40) * ((s % 11) + 1) / 4;
                for _ in 0..visits {
                    table.set(s, a, v);
                }
            }
        }
        table
    }

    #[test]
    fn binary_codec_is_at_least_five_times_smaller_than_json() {
        let table = populated_paper_table();
        let binary = encode_table(&table).len();
        let json = table_json_cells(&table).render().len();
        assert!(binary > 0 && json > 0);
        assert!(
            binary * 5 <= json,
            "NXQT must be at least 5x smaller: binary {binary} B vs JSON {json} B \
             (ratio {:.1}x)",
            json as f64 / binary as f64
        );
    }

    #[test]
    fn json_cells_list_exactly_the_visited_cells() {
        let mut table = DenseQTable::dense_for_space(4, 0.0, 8);
        table.set(2, 1, 0.5);
        table.set(2, 1, 0.75);
        table.set(5, 3, -1.25);
        let cells = table_json_cells(&table);
        let arr = cells.as_array().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("state").and_then(Json::as_u64), Some(2));
        assert_eq!(arr[0].get("action").and_then(Json::as_f64), Some(1.0));
        assert_eq!(arr[0].get("q").and_then(Json::as_f64), Some(0.75));
        assert_eq!(arr[0].get("visits").and_then(Json::as_u64), Some(2));
        assert_eq!(arr[1].get("state").and_then(Json::as_u64), Some(5));
        assert_eq!(arr[1].get("visits").and_then(Json::as_u64), Some(1));
    }
}
