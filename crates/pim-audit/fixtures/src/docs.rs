//! Public items without documentation (`missing_docs`, a warning).

pub fn undocumented() {}
