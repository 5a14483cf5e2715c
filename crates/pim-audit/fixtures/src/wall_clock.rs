//! Wall-clock reads on the unit path (`disallowed_methods`).

use std::time::{Instant, SystemTime};

/// Fires twice: a unit result that reads the clock is not a function of its key.
pub fn simulate_unit(horizon: u64) -> f64 {
    let started = Instant::now();
    let stamp = SystemTime::now();
    let _ = (horizon, stamp);
    started.elapsed().as_secs_f64()
}

/// Silent: a clock in a string is prose, not a call.
pub fn describe() -> &'static str {
    "call Instant::now() to time things"
}

#[cfg(test)]
mod tests {
    // Fires: test code keeps the clock rule too; a test that times itself says so
    // with an expect.
    #[test]
    fn timing_tests_need_an_expect() {
        let _ = std::time::Instant::now();
    }
}
