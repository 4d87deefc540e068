//! Synthetic workload traces standing in for SPEC CPU2006, SPLASH-2, and
//! PARSEC (paper Section 6).
//!
//! The reproduction does not have the proprietary benchmark suites, so each
//! application is replaced by a seeded synthetic µop stream whose
//! *sensitivities* match the real program's published character:
//! instruction mix, instruction-level parallelism (dependency distances),
//! branch predictability, working-set sizes and access patterns, and — for
//! the parallel suites — data sharing and barrier cadence. These are the
//! properties that determine how much an application gains from the paper's
//! M3D design points (higher frequency, one cycle less load-to-use, two
//! cycles less branch-misprediction restart, more cores).
//!
//! * [`profile::WorkloadProfile`] — the knobs.
//! * [`spec`] — the 21 SPEC CPU2006 applications of Figures 6–8.
//! * [`parallel`] — the 15 SPLASH-2/PARSEC applications of Figures 9–10.
//! * [`gen::TraceGenerator`] — deterministic µop stream generator.
//! * [`stream::OpStream`] — a stream generated live, recorded once, or
//!   replayed from a record.
//!
//! # Example
//!
//! ```
//! use m3d_workloads::spec::spec2006;
//! use m3d_workloads::gen::TraceGenerator;
//!
//! let profiles = spec2006();
//! assert_eq!(profiles.len(), 21);
//! let mut gen = TraceGenerator::new(&profiles[0], 42, 0, 1);
//! let op = gen.next_op();
//! assert!(op.kind.is_valid());
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gen;
pub mod op;
pub mod parallel;
pub mod profile;
pub mod spec;
pub mod stream;

pub use gen::TraceGenerator;
pub use op::{MicroOp, OpKind};
pub use profile::WorkloadProfile;
pub use stream::{OpStream, StreamRecord};
