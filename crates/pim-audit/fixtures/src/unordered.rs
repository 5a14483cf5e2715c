//! Hash-ordered iteration feeding results (`iter_over_hash_type`,
//! `disallowed_methods`).

use std::collections::{HashMap, HashSet};

/// Fires: a `for` loop visits the rows in hash order.
pub fn assemble(rows: &HashMap<u64, f64>) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for (id, v) in rows {
        out.push((*id, *v));
    }
    out
}

/// Fires once per line: each of these methods yields or visits hash order.
pub fn every_ordered_view(mut rows: HashMap<u64, f64>, mut ids: HashSet<u64>) -> Vec<f64> {
    let mut out: Vec<f64> = rows.iter().map(|(id, v)| *id as f64 + v).collect();
    out.extend(rows.iter_mut().map(|(id, v)| *id as f64 * *v));
    out.extend(rows.keys().map(|id| *id as f64));
    out.extend(rows.values().copied());
    rows.values_mut().for_each(|v| *v += 1.0);
    rows.retain(|_, v| *v > 0.0);
    out.extend(rows.drain().map(|(_, v)| v));
    out.extend(ids.iter().map(|id| *id as f64));
    ids.retain(|id| *id > 0);
    out.extend(ids.drain().map(|id| id as f64));
    out
}

/// Silent: keyed lookups and length reads do not depend on hash order.
pub fn lookup(rows: &HashMap<u64, f64>, keys: &[u64]) -> f64 {
    let mut total = 0.0;
    for k in keys {
        total += rows.get(k).copied().unwrap_or(0.0);
    }
    total / rows.len() as f64
}
