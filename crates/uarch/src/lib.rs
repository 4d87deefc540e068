//! Cycle-level out-of-order multicore simulator (paper Table 9),
//! standing in for Multi2Sim.
//!
//! The model simulates, per cycle: fetch (IL1 + tournament branch
//! prediction + BTB), decode/rename/dispatch with register/ROB/IQ/LSQ
//! resource limits, oldest-first issue to a Table 9 functional-unit
//! complement, a cache hierarchy (private IL1/DL1/L2, shared banked L3 with
//! a MESI directory over a ring NoC), store-to-load forwarding, and
//! in-order commit with barrier synchronisation for parallel traces.
//!
//! Design knobs exposed for the paper's configurations: core frequency
//! (DRAM nanoseconds convert to more cycles at higher clocks), the
//! load-to-use and branch-misprediction path cycle counts (3D designs save
//! 1 and 2 cycles respectively), issue width (M3D-Het-W uses 8), shared-L2
//! core pairing and halved NoC hop latency (Figure 4), and core count.
//!
//! The cycle loop itself is built for sweep throughput: the ROB and cache
//! line state are structure-of-arrays rings with generation-tagged slots
//! (no per-issue hash lookups), wake-up is event-driven (a µop waits on
//! its producers' consumer lists, then in a `ready_at` calendar, and issue
//! scans a bitmask of ready ROB slots oldest-first), and the run loops
//! skip the clock over fully quiescent stretches
//! ([`config::CoreConfig::skip_ahead`], on by default) — bit-identical to
//! plain stepping, just faster. See DESIGN.md § "Cycle loop".
//!
//! # Example
//!
//! ```
//! use m3d_uarch::config::CoreConfig;
//! use m3d_uarch::core::Core;
//! use m3d_workloads::{spec::spec2006, TraceGenerator};
//!
//! let cfg = CoreConfig::base_2d();
//! let gen = TraceGenerator::new(&spec2006()[10], 1, 0, 1);
//! let mut core = Core::new(0, cfg, gen);
//! let warmup = core.run(20_000); // cold caches: low IPC
//! let result = core.run(20_000);
//! assert!(result.ipc() > warmup.ipc());
//! assert!(result.ipc() > 0.2 && result.ipc() < 6.0);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod bpred;
pub mod cache;
pub mod config;
pub mod core;
pub mod error;
pub mod memory;
pub mod multicore;
pub mod stats;

/// Maximum core count a [`Multicore`] supports: the barrier controller and
/// the coherence directory track cores in 32-bit masks.
pub const MAX_CORES: usize = 32;

pub use batch::{BatchStats, SimBatch, SimInterval, SimPoint};
pub use config::CoreConfig;
pub use core::Core;
pub use error::SimError;
pub use multicore::Multicore;
pub use stats::{ActivityStats, PerfResult};
