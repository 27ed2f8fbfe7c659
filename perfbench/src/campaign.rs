//! `campaign`: small federated online-learning campaigns.
//!
//! Each unit is one whole `run_campaign_from_seed` of 2 devices × 1
//! round on the campaign's quick (4-pickup) day, devices alternating
//! between exynos9810 and exynos9820; the units differ by campaign
//! seed. The work is Q-table writes (online updates, overlay
//! copy-on-write), delta and table encoding, merge folds and the
//! width-1 batch kernel: the write side of layers that `session_grid`
//! and `battery_day` only read. Set-up is `warm_seed`, which depends
//! only on the platforms and the training budget, so one warm seed
//! serves every unit.

use std::cell::RefCell;

use crate::api::{Campaign, CampaignCounts, WarmSeed};
use crate::digest::{derive_seed, Digest};
use crate::estimator::{Estimate, Job, Probe};
use crate::report::{interleaved, Metric, Tally};

/// Devices per campaign.
pub const DEVICES: usize = 2;
/// Rounds per campaign. One round keeps a unit near 5 ms: under
/// sustained host contention 10 ms units (two rounds) swung up to 1.9x
/// between runs, sub-millisecond day segments 1.4x.
pub const ROUNDS: usize = 1;
/// Campaigns (units) per pass.
pub const UNITS: usize = 24;

/// Digests of the default seed's campaigns, in unit order. The warm
/// seed is opaque, so set-up has no digest of its own: every campaign
/// digest depends on it.
const PINNED_UNITS: [Digest; UNITS] = [
    0xb790_b47c_34fb_a3a0,
    0x25b7_10cf_6802_1a19,
    0x7271_7b73_eb97_d5af,
    0x602f_21ad_77ee_0f9f,
    0x2390_7005_f4ef_1543,
    0x950a_c4c2_6251_bbe1,
    0xa08a_eeb0_258a_2c52,
    0xeef4_225e_5438_b8a3,
    0xce17_1da3_f315_4b79,
    0x26e0_08b8_2598_f75a,
    0x6906_2f51_b85b_150c,
    0x6320_d058_2da8_4e9e,
    0x7042_c03c_0465_df50,
    0x0c76_e436_d7df_1c1e,
    0x7680_e8ad_1951_be38,
    0x6bca_90f2_1402_91fe,
    0x2c18_c85b_25f4_7d08,
    0x07de_bf74_6dc3_0bb8,
    0x5289_23b0_4afb_bb31,
    0x355c_e143_353a_17ee,
    0xc02d_cc51_eed5_73c4,
    0x9dd4_71b1_bff3_0bd3,
    0x595c_b8cb_fabb_478a,
    0x18c4_54bd_ed28_0333,
];

/// The generated inputs of one `campaign` run.
#[derive(Debug)]
pub struct Campaigns {
    /// One campaign per unit.
    pub campaigns: Vec<Campaign>,
    pinned: bool,
}

impl Campaigns {
    /// Builds the campaigns; every campaign seed derives from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Campaigns {
            campaigns: (0..UNITS)
                .map(|k| Campaign::quick(DEVICES, ROUNDS, derive_seed(seed, "campaign", k as u64)))
                .collect(),
            pinned: seed == crate::DEFAULT_SEED,
        }
    }

    /// Simulated device-seconds of one pass.
    #[must_use]
    pub fn sim_seconds(&self) -> f64 {
        self.campaigns.iter().map(Campaign::device_seconds).sum()
    }

    /// The set-up, run once: the warm seed every campaign starts from.
    ///
    /// # Errors
    ///
    /// Returns the program's message for an invalid configuration.
    pub fn warm_seed(&self) -> Result<WarmSeed, String> {
        self.campaigns
            .first()
            .ok_or_else(|| "no campaign".to_owned())?
            .warm_seed()
    }

    /// The set-up as a unit: `warm_seed`.
    #[must_use]
    pub fn setup_jobs(&self) -> Vec<Job<'_>> {
        vec![Job::new("warm_seed", move |probe: &mut Probe| {
            let seed = self.warm_seed()?;
            probe.stop();
            drop(seed);
            Ok(0)
        })]
    }

    /// One unit per campaign; the counts of each unit's first run are
    /// kept in `first`.
    pub fn unit_jobs<'a>(
        &'a self,
        warm: &'a WarmSeed,
        first: &'a RefCell<Vec<Option<CampaignCounts>>>,
    ) -> Vec<Job<'a>> {
        first.borrow_mut().resize(self.campaigns.len(), None);
        self.campaigns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                Job::new(format!("campaign/{i}"), move |probe: &mut Probe| {
                    let run = c.run(warm, 1);
                    probe.stop();
                    let mut slot = first.borrow_mut();
                    if slot[i].is_none() {
                        slot[i] = Some(run.counts());
                    }
                    run.digest()
                })
                .pinned(self.pinned.then(|| PINNED_UNITS[i]))
            })
            .collect()
    }
}

/// Everything a `campaign` run measured.
#[derive(Debug)]
pub struct CampaignRun {
    /// The inputs.
    pub campaigns: Campaigns,
    /// The warm seed.
    pub warm: WarmSeed,
    /// The set-up unit.
    pub setup: Estimate,
    /// The campaign units.
    pub estimate: Estimate,
}

/// Seeds once, then times set-up and campaign units round-robin for
/// `seconds`.
///
/// # Errors
///
/// Returns a message when the warm seed cannot be built.
pub fn measure(seed: u64, seconds: f64, tally: &mut Tally) -> Result<CampaignRun, String> {
    let campaigns = Campaigns::new(seed);
    let warm = campaigns.warm_seed()?;
    let first = RefCell::new(Vec::new());
    let [setup, estimate] = interleaved(
        tally,
        "campaign",
        [
            ("setup", campaigns.setup_jobs()),
            ("units", campaigns.unit_jobs(&warm, &first)),
        ],
        seconds,
        crate::MIN_PASSES,
    );
    Ok(CampaignRun {
        campaigns,
        warm,
        setup,
        estimate,
    })
}

/// Re-runs the first campaign on two workers and checks it reproduces
/// the one-worker digest (worker-count invariance).
pub fn check_workers(run: &CampaignRun, tally: &mut Tally) {
    let one = run.estimate.jobs.first().and_then(|j| j.digest);
    let two = run
        .campaigns
        .campaigns
        .first()
        .map(|c| c.run(&run.warm, 2).digest());
    let ok = matches!((one, two), (Some(a), Some(Ok(b))) if a == b);
    tally.check(ok, "campaign/0: 2 workers reproduce the 1-worker digest");
}

/// The untraced `campaign` run: end-to-end metrics and checks.
///
/// # Errors
///
/// Returns a message when the run could not be measured.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let run = measure(seed, seconds, tally)?;
    let rss = crate::report::peak_rss_mb()?;
    check_workers(&run, tally);
    Ok(crate::end_to_end(
        run.campaigns.sim_seconds(),
        &run.estimate,
        &run.setup,
        rss,
    ))
}
