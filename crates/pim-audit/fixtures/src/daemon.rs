//! A service module inside a unit-path crate, like `pim-harness`'s `serve`: its
//! clocks time requests, never units, and one module-level expect says so.
//! Silent.

#![expect(
    clippy::disallowed_methods,
    reason = "request timing for logs and metrics; nothing here feeds a unit result"
)]

/// Milliseconds since `started`, for a request log line.
pub fn request_elapsed_ms() -> f64 {
    let started = std::time::Instant::now();
    started.elapsed().as_secs_f64() * 1e3
}
