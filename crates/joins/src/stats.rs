//! Timing for join execution.
//!
//! The paper reports every experiment as a **setup** / **join** (and later
//! **sync**) phase breakdown; [`timed`] measures one phase of real,
//! wall-clock-measured local execution. (The simulator keeps its own
//! virtual-time breakdowns.)

use std::time::{Duration, Instant};

/// Runs `f`, returning its result and the wall-clock time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_and_returns() {
        let (value, elapsed) = timed(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(value, 42);
        assert!(elapsed >= Duration::from_millis(5));
    }
}
