//! Simulated storage devices with deterministic simulated time.
//!
//! The paper validates its models against physical hard disks and SSDs
//! (§4, Tables 1–2, Figure 1). This crate supplies the stand-ins: device
//! simulators that expose the *mechanisms* the affine and PDAM models
//! abstract — seeks, rotation, and sequential transfer for HDDs; channel/die
//! parallelism, page-granular service, and bank conflicts for SSDs — while
//! remaining deterministic and bit-reproducible.
//!
//! Devices store real bytes (via a sparse page store) *and* charge simulated
//! time, so the data structures built on top are genuine storage engines.
//!
//! Key types:
//!
//! * [`SimTime`] / [`SimDuration`] — the nanosecond-resolution simulated
//!   clock every completion time is expressed in.
//! * [`BlockDevice`] — the device interface (read/write at byte offsets,
//!   returning [`IoCompletion`] timestamps).
//! * [`SimDevice`] — the one simulated device: the sparse store, the
//!   statistics, the range check and the byte path, including the
//!   overrides of `read_discard`, `read_image` and `write_image`. A
//!   [`Timing`] model prices each IO; the three below are its aliases.
//! * [`HddDevice`] — mechanical disk: distance-dependent seek curve,
//!   rotational latency, zoned transfer, sequential-access detection.
//! * [`SsdDevice`] — flash device: `channels × dies` independent units with
//!   per-unit queues; bank conflicts emerge from LBA striping.
//! * [`RamDisk`] — constant-latency device for tests.
//! * [`concurrency`] — a closed-loop multi-client simulator (the Fig 1
//!   experiment driver).
//! * [`sched`] — the PDAM step scheduler: `P` slots per step, read
//!   coalescing, and max-min fair dispatch across clients (the layer
//!   `dam-serve` builds on).
//! * [`profiles`] — parameter sets for the paper's physical devices.

pub mod clock;
pub mod concurrency;
pub mod device;
pub mod faulty;
pub mod hdd;
pub mod hist;
pub mod profiles;
pub mod ramdisk;
pub mod retry;
pub mod sched;
pub mod sim;
pub mod ssd;
pub mod store;

pub use clock::{SimDuration, SimTime};
pub use concurrency::{run_closed_loop, ClosedLoopConfig, ClosedLoopResult};
pub use device::{BlockDevice, DeviceStats, IoCompletion, IoError, SharedDevice};
pub use faulty::{FaultInjector, FaultMode, FaultStats, FaultSwitch};
pub use hdd::{HddDevice, HddProfile, HddTiming};
pub use hist::LatencyHist;
pub use ramdisk::{RamDisk, RamTiming};
pub use retry::{RetryHandle, RetryPolicy, RetryStats, RetryingDevice};
pub use sched::{
    BlockAddr, BlockReq, IoChain, PdamScheduler, SchedConfig, SchedStats, StepOutcome, StepRecord,
};
pub use sim::{SimDevice, Timing};
pub use ssd::{SsdDevice, SsdProfile, SsdTiming};
