//! The resolution table.
//!
//! Emu DNS "supports resolution queries from names to IPv4 addresses"
//! against a fixed table (§3.3). The same [`Zone`] content backs both the
//! hardware and software servers so a placement shift is invisible.

use std::net::Ipv4Addr;

use inc_sim::FixedHashMap;

use crate::wire::{DnsError, Name};

/// A name → IPv4 resolution table with per-record TTLs.
///
/// Records are keyed by the name's lowercase wire form
/// ([`Name::as_wire`]), stored compactly; a lookup hashes the inline
/// wire bytes of the queried [`Name`] and allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct Zone {
    records: FixedHashMap<Box<[u8]>, (Ipv4Addr, u32)>,
    default_ttl: u32,
}

impl Zone {
    /// Creates an empty zone with a 300 s default TTL.
    pub fn new() -> Self {
        Zone {
            records: FixedHashMap::default(),
            default_ttl: 300,
        }
    }

    /// Adds an A record by dotted name, with the default TTL.
    pub fn insert(&mut self, name: &str, addr: Ipv4Addr) -> Result<(), DnsError> {
        self.insert_name(&Name::parse(name)?, addr, self.default_ttl);
        Ok(())
    }

    fn insert_name(&mut self, name: &Name, addr: Ipv4Addr, ttl: u32) {
        self.records.insert(name.as_wire().into(), (addr, ttl));
    }

    /// Looks up a name (already-normalized [`Name`] keys match
    /// case-insensitively by construction).
    pub fn lookup(&self, name: &Name) -> Option<(Ipv4Addr, u32)> {
        self.records.get(name.as_wire()).copied()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the zone has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The deterministic address used by test/bench zones for `host-{i}`:
    /// derived from the index so clients can verify answers.
    pub fn synthetic_addr(i: u64) -> Ipv4Addr {
        let b = (i % 0xFFFF) as u32;
        Ipv4Addr::new(192, 168, (b >> 8) as u8, (b & 0xFF) as u8)
    }

    /// Builds the benchmark zone `host-0.example.com` .. `host-{n-1}`.
    pub fn synthetic(n: u64) -> Zone {
        let mut z = Zone::new();
        z.records.reserve(n as usize);
        for i in 0..n {
            let name = Name::from_fmt(format_args!("host-{i}.example.com"))
                .expect("synthetic names are valid");
            z.insert_name(&name, Zone::synthetic_addr(i), z.default_ttl);
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut z = Zone::new();
        z.insert("www.Example.com", Ipv4Addr::new(1, 2, 3, 4))
            .unwrap();
        let name = Name::parse("WWW.example.COM").unwrap();
        assert_eq!(z.lookup(&name), Some((Ipv4Addr::new(1, 2, 3, 4), 300)));
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn missing_name_is_none() {
        let z = Zone::synthetic(4);
        let name = Name::parse("host-99.example.com").unwrap();
        assert_eq!(z.lookup(&name), None);
    }

    #[test]
    fn synthetic_zone_is_verifiable() {
        let z = Zone::synthetic(100);
        assert_eq!(z.len(), 100);
        for i in [0u64, 7, 99] {
            let name = Name::parse(&format!("host-{i}.example.com")).unwrap();
            assert_eq!(z.lookup(&name).unwrap().0, Zone::synthetic_addr(i));
        }
    }

    #[test]
    fn bad_names_rejected() {
        let mut z = Zone::new();
        assert!(z.insert("a..b", Ipv4Addr::new(1, 1, 1, 1)).is_err());
    }
}
