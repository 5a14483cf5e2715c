//! The exception grammar: one reviewed expect, one allow without a reason, one
//! naming an unknown lint, and one expect that matches nothing.

/// Silent: a reviewed exception, with its reason.
#[expect(clippy::unwrap_used, reason = "the caller validated ops is non-empty")]
pub fn reviewed(ops: &[u64]) -> u64 {
    *ops.first().unwrap()
}

/// Fires (`allow_attributes_without_reason`): the exception says nothing of why.
#[allow(clippy::unwrap_used)]
pub fn unreviewed(ops: &[u64]) -> u64 {
    *ops.first().unwrap()
}

/// Fires (`unknown_lints`): there is no such lint to expect.
#[expect(clippy::made_up_rule, reason = "this lint does not exist")]
pub fn unknown_rule() {}

/// Fires (`unfulfilled_lint_expectations`): nothing below unwraps anymore.
#[expect(clippy::unwrap_used, reason = "nothing below unwraps anymore")]
pub fn stale() {}
