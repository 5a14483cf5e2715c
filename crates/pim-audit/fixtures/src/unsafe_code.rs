//! `unsafe` anywhere (`unsafe_code`, forbidden).

/// Fires: the workspace has no `unsafe` code.
pub fn read_raw() -> u64 {
    let value = 7u64;
    let ptr = &value as *const u64;
    unsafe { *ptr }
}

/// Fires too: a `SAFETY:` comment does not lift the ban.
pub fn read_justified() -> u64 {
    let value = 7u64;
    let ptr = &value as *const u64;
    // SAFETY: ptr points at a live local, valid and aligned for the read.
    unsafe { *ptr }
}
