//! Bare `unwrap`/`expect` in library code (`unwrap_used`, `expect_used`).

/// Fires twice: a panic mid-batch loses the batch.
pub fn first_op(ops: &[u64]) -> u64 {
    let head = ops.first().unwrap();
    let copy = ops.first().expect("ops is non-empty");
    head + copy
}

#[cfg(test)]
mod tests {
    // Silent: tests may unwrap.
    #[test]
    fn tests_may_unwrap() {
        let ops = [2u64];
        assert_eq!(*ops.first().unwrap(), super::first_op(&ops) / 2);
    }
}
