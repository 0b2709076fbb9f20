//! Link-layer addressing.

use core::fmt;
use core::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use inc_net::MacAddr;
///
/// let mac: MacAddr = "02:00:00:00:00:01".parse().unwrap();
/// assert_eq!(mac.to_string(), "02:00:00:00:00:01");
/// assert!(!mac.is_multicast());
/// assert!(MacAddr([0xff; 6]).is_multicast()); // broadcast
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-zero address.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds a locally administered unicast address from a small integer,
    /// convenient for tests and topology builders.
    pub const fn local(n: u32) -> MacAddr {
        let b = n.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns `true` for group (multicast/broadcast) addresses.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Returns the raw octets.
    pub fn octets(&self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Error parsing a MAC address from text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MacParseError;

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected six ':'-separated hex octets")
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for MacAddr {
    type Err = MacParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for slot in &mut out {
            let part = parts.next().ok_or(MacParseError)?;
            if part.len() != 2 {
                return Err(MacParseError);
            }
            *slot = u8::from_str_radix(part, 16).map_err(|_| MacParseError)?;
        }
        if parts.next().is_some() {
            return Err(MacParseError);
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        for s in [
            "00:11:22:33:44:55",
            "ff:ff:ff:ff:ff:ff",
            "02:00:00:00:00:2a",
        ] {
            let mac: MacAddr = s.parse().unwrap();
            assert_eq!(mac.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:gg".parse::<MacAddr>().is_err());
        assert!("0:11:22:33:44:55".parse::<MacAddr>().is_err());
    }

    #[test]
    fn multicast_bit() {
        assert!(MacAddr([0xff; 6]).is_multicast()); // broadcast
        assert!(!MacAddr::local(1).is_multicast());
        assert!(MacAddr([0x01, 0, 0x5e, 0, 0, 1]).is_multicast());
    }

    #[test]
    fn local_addresses_distinct() {
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
        assert_eq!(MacAddr::local(7), MacAddr::local(7));
    }
}
