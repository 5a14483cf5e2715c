//! Known-bad code for the determinism lints: one module per rule, each with the
//! cases that must fire and the look-alikes that must stay silent. This package
//! is a workspace member, so the `[workspace.lints]` table and the root `clippy.toml`
//! apply to it, but not a default member, so the workspace's own clippy run skips
//! it. `pim-audit`'s `fixtures_golden` test lints it and pins every finding by
//! file, line and lint.

pub mod allows;
pub mod daemon;
pub mod docs;
pub mod entropy;
pub mod unordered;
// rustc itself rejects forbidden `unsafe`; compiling this module only under
// clippy keeps `cargo build --workspace` and `cargo test --workspace` working.
#[cfg(clippy)]
pub mod unsafe_code;
pub mod unwraps;
pub mod wall_clock;
