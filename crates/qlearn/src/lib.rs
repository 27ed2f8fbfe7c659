//! Tabular Q-learning toolkit underpinning the Next agent.
//!
//! The paper models Next as Watkins-style Q-learning (§IV-B, Eq. 3):
//! a table of action values over a discretised state space, an ε-greedy
//! behaviour policy, and the update rule
//!
//! ```text
//! Q(s,a) ← Q(s,a) + α·(r − Q(s,a) + γ·max_a' Q(s',a'))
//! ```
//!
//! This crate provides the reusable machinery:
//!
//! * [`qtable`] — the Q-table with visit counting, generic over its
//!   storage backend,
//! * [`backend`] — the [`QStore`] storage abstraction and the
//!   dense-indexed arena ([`DenseStore`]) whose contiguous rows make
//!   the per-control-period argmax+update loop cache-friendly,
//! * [`overlay`] — [`OverlayStore`], the campaign's per-device
//!   backend: a copy-on-write view of an `Arc`-shared dense base, with
//!   O(1) warm start, O(touched) resident memory and delta extraction,
//! * [`policy`] — ε-greedy action selection with decay schedules,
//! * [`learner`] — the Q-learning update rule,
//! * [`discretize`] — uniform quantisers, including the FPS quantiser
//!   whose bin count the paper sweeps in Fig. 6 (30 bins works best),
//! * [`federated`] — streaming visit-weighted federated averaging of
//!   device tables ([`MergeAccumulator`]: bounded memory, dense arena
//!   fast path) plus the cloud-training time model of §IV-C,
//! * [`codec`] — the compact `NXQT` binary table/delta codec, the one
//!   format tables persist in: the per-app table store, campaign
//!   checkpoints, the delta-bytes uplink cost model and the CLI's
//!   table files (the paper stores per-application tables and reloads
//!   them on later runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod discretize;
pub mod federated;
pub mod learner;
pub mod overlay;
pub mod policy;
pub mod qtable;

pub use backend::{DenseStore, QStore};
pub use codec::{apply_delta, decode_table, delta_between, encode_table, CodecError};
pub use discretize::Quantizer;
pub use federated::{CloudModel, MergeAccumulator, MergeError};
pub use learner::QLearning;
pub use overlay::OverlayStore;
pub use policy::EpsilonGreedy;
pub use qtable::{DenseQTable, QTable, StateKey};
