// Fixture: per-slot ordered maps growing back into the Multi-Paxos roles.
struct Replica {
    decisions: BTreeMap<u64, Bytes>,
    decided: std::collections::BTreeSet<u64>,
    // Keyed by client, not by slot: legal.
    executed: BTreeMap<u32, SeqRuns>,
    window: SlotRing<ReplicaSlot>,
}

// The one sanctioned signature: outside callers hand over a map.
pub fn encode_pvalues<V: AsRef<[u8]>>(accepted: &BTreeMap<u64, (Ballot, V)>) -> Vec<u8> {
    let copy: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    Vec::new()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_build_maps_to_encode() {
        let accepted: BTreeMap<u64, (Ballot, Bytes)> = BTreeMap::new();
    }
}
