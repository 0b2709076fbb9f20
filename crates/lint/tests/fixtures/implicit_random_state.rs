// Fixture: hash tables seeded per process in a packet-path crate.
use std::collections::{HashMap, HashSet};

struct Table {
    parked: HashMap<u64, Vec<u8>>,
    seen: HashSet<u64>,
    fixed: FixedHashMap<u64, u64>,
}

fn table() -> Table {
    Table {
        parked: HashMap::new(),
        seen: std::collections::HashSet::with_capacity(64),
        fixed: FixedHashMap::default(),
    }
}

fn explicit_hashers_are_fine() -> HashMap<u64, u64, FixedState> {
    HashMap::with_capacity_and_hasher(8, FixedState::default())
}
