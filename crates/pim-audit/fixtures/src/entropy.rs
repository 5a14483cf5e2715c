//! Randomness from outside the seed chain (`disallowed_methods`).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::RandomState;

/// Fires: only `RandomStream::new` seeds a generator, so every stream derives
/// from a unit's key the same way.
pub fn seeded_outside_random_stream(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Fires: the hasher's keys come from the machine.
pub fn ambient_hasher() -> RandomState {
    RandomState::new()
}
