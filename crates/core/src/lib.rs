//! `refined-dam` — the facade crate for the reproduction of *"Small
//! Refinements to the DAM Can Have Big Consequences for Data-Structure
//! Design"* (Bender et al., SPAA 2019).
//!
//! The paper's workflow, end to end:
//!
//! 1. **Profile** a device with microbenchmarks ([`profiler`]): a
//!    thread-scaling random-read sweep fits the PDAM's parallelism `P`
//!    (§4.1, Table 1); a size-scaling random-read sweep fits the affine
//!    model's setup cost `s`, bandwidth cost `t`, and `α = t/s` (§4.2,
//!    Table 2).
//! 2. **Tune** data-structure parameters from the fitted affine model
//!    ([`tuner`]): B-tree node sizes (Corollaries 6–7), Bε-tree fanout and
//!    node size (Corollaries 11–12).
//! 3. **Run** the tuned structures — [`dam_btree::BTree`],
//!    [`dam_betree::BeTree`], [`dam_betree::OptBeTree`] — on the simulated
//!    devices and compare measured costs against the analytic predictions
//!    in [`dam_models`]. §8's PDAM tree designs are modelled separately by
//!    [`dam_veb`], an abstract step simulator that counts the blocks each
//!    query reads per PDAM step, with no device and no stored data.
//!
//! Substrate crates are re-exported under short names: [`models`],
//! [`stats`], [`storage`], [`cache`], [`kv`], [`btree`], [`betree`],
//! [`veb`].
//!
//! # Quickstart
//!
//! ```
//! use refined_dam::prelude::*;
//!
//! // A simulated 2018-era hard disk.
//! let profile = refined_dam::storage::profiles::wd_red_6tb_2018();
//! let device = SharedDevice::new(Box::new(HddDevice::new(profile, 42)));
//!
//! // A Bε-tree with 1 MiB nodes and √B fanout, 1 MiB of cache.
//! let cfg = BeTreeConfig::sqrt_fanout(1 << 20, 116, 1 << 20);
//! let mut tree = BeTree::create(device, cfg).unwrap();
//! tree.insert(b"hello", b"world").unwrap();
//! assert_eq!(tree.get(b"hello").unwrap(), Some(b"world".to_vec()));
//! ```

pub mod profiler;
pub mod tuner;

pub use dam_betree as betree;
pub use dam_btree as btree;
pub use dam_cache as cache;
pub use dam_kv as kv;
pub use dam_lsm as lsm;
pub use dam_models as models;
pub use dam_obs as obs;
pub use dam_stats as stats;
pub use dam_storage as storage;
pub use dam_veb as veb;

pub use profiler::{profile_affine, profile_pdam, AffineProfile, PdamProfile, ProfileError};
pub use tuner::{tune_for_affine, AffineTuning};

/// One-stop imports for examples and experiments.
pub mod prelude {
    pub use crate::profiler::{profile_affine, profile_pdam, AffineProfile, PdamProfile};
    pub use crate::tuner::{tune_for_affine, AffineTuning};
    pub use dam_betree::{BeTree, BeTreeConfig, OptBeTree, OptConfig};
    pub use dam_btree::{BTree, BTreeConfig};
    pub use dam_kv::{Dictionary, KvError, OpCost, WorkloadConfig, WorkloadGen};
    pub use dam_lsm::{LsmConfig, LsmTree};
    pub use dam_models::{Affine, Dam, DictShape, Pdam};
    pub use dam_obs::{MetricsSnapshot, ModelParams, Obs, ObservedDevice, ObservedDict};
    pub use dam_storage::{
        run_closed_loop, BlockDevice, ClosedLoopConfig, HddDevice, RamDisk, SharedDevice,
        SimDuration, SimTime, SsdDevice,
    };
    pub use dam_veb::{run_pdam_sim, PdamSimConfig, PdamSimResult};
}
