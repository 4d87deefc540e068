//! Pure building blocks of the `perfbench` harness: order statistics and
//! tail-percentile selection, wall-clock masking of rendered output,
//! seeded request schedules, and self time from nested spans.
//!
//! Everything here is deterministic and free of I/O so it can be unit
//! tested (`cargo test --manifest-path perfbench/harness/Cargo.toml`);
//! the binary in `main.rs` drives the program with these pieces.

pub mod sched;
pub mod spans;
pub mod stats;
pub mod text;
