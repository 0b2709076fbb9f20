//! Packet classification.
//!
//! LaKe and (after the paper's modification) Emu DNS contain a packet
//! classifier that splits application traffic from normal NIC traffic
//! (Figure 1, §3.3). The same classifier hosts the paper's
//! *network-controlled* on-demand logic, which §9.1 implements "in 40
//! lines of code within the FPGA's classifier module". This module
//! provides that classifier as an ordered rule table over parsed headers.

use crate::packet::{Packet, UdpFrame};

/// A classification decision. Class 0 is conventionally "normal traffic".
pub type Class = u32;

/// The conventional class for non-application (pass-through) traffic.
pub const CLASS_NORMAL: Class = 0;

/// One match rule; `None` fields are wildcards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Match {
    /// Match the UDP destination port.
    pub udp_dst_port: Option<u16>,
    /// Match the UDP source port.
    pub udp_src_port: Option<u16>,
    /// Match the IPv4 destination address.
    pub ipv4_dst: Option<std::net::Ipv4Addr>,
}

impl Match {
    /// A rule matching a UDP destination port.
    pub fn udp_dst(port: u16) -> Self {
        Match {
            udp_dst_port: Some(port),
            ..Default::default()
        }
    }

    pub(crate) fn matches(&self, frame: &UdpFrame<'_>) -> bool {
        if let Some(p) = self.udp_dst_port {
            if frame.udp.dst_port != p {
                return false;
            }
        }
        if let Some(p) = self.udp_src_port {
            if frame.udp.src_port != p {
                return false;
            }
        }
        if let Some(ip) = self.ipv4_dst {
            if frame.ip.dst != ip {
                return false;
            }
        }
        true
    }
}

/// An ordered first-match-wins rule table.
///
/// Packets that are not valid UDP/IPv4 frames always classify as
/// [`CLASS_NORMAL`] — the hardware forwards what it cannot parse.
///
/// # Examples
///
/// ```
/// use inc_net::{build_udp, Classifier, Endpoint, Match, CLASS_NORMAL};
///
/// const CLASS_KVS: u32 = 1;
/// let mut c = Classifier::new();
/// c.add_rule(Match::udp_dst(11211), CLASS_KVS);
///
/// let kvs = build_udp(Endpoint::host(1, 999), Endpoint::host(2, 11211), b"get k");
/// let other = build_udp(Endpoint::host(1, 999), Endpoint::host(2, 80), b"x");
/// assert_eq!(c.classify(&kvs), CLASS_KVS);
/// assert_eq!(c.classify(&other), CLASS_NORMAL);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Classifier {
    rules: Vec<(Match, Class)>,
}

impl Classifier {
    /// Creates an empty classifier (everything is [`CLASS_NORMAL`]).
    pub fn new() -> Self {
        Classifier::default()
    }

    /// Appends a rule; earlier rules take precedence.
    pub fn add_rule(&mut self, m: Match, class: Class) -> &mut Self {
        self.rules.push((m, class));
        self
    }

    /// Classifies a packet: the class of the first matching rule.
    pub fn classify(&self, packet: &Packet) -> Class {
        match UdpFrame::parse(packet) {
            Ok(frame) => self
                .rules
                .iter()
                .find(|(m, _)| m.matches(&frame))
                .map(|&(_, c)| c)
                .unwrap_or(CLASS_NORMAL),
            Err(_) => CLASS_NORMAL,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
mod tests {
    use super::*;
    use crate::packet::{build_udp, Endpoint};

    fn pkt(dst_port: u16) -> Packet {
        build_udp(Endpoint::host(1, 555), Endpoint::host(2, dst_port), b"p")
    }

    #[test]
    fn first_match_wins() {
        let mut c = Classifier::new();
        c.add_rule(Match::udp_dst(53), 7);
        c.add_rule(Match::default(), 9); // wildcard catch-all
        assert_eq!(c.classify(&pkt(53)), 7);
        assert_eq!(c.classify(&pkt(80)), 9);
    }

    #[test]
    fn source_port_rules_match_replies() {
        let mut c = Classifier::new();
        let from_dns = Match {
            udp_src_port: Some(53),
            ..Default::default()
        };
        c.add_rule(from_dns, 3);
        let request = build_udp(Endpoint::host(1, 555), Endpoint::host(2, 53), b"q");
        let reply = build_udp(Endpoint::host(2, 53), Endpoint::host(1, 555), b"r");
        assert_eq!(c.classify(&request), CLASS_NORMAL);
        assert_eq!(c.classify(&reply), 3);
    }

    #[test]
    fn unparseable_is_normal() {
        let c = Classifier::new();
        let junk = Packet::from_bytes(bytes::Bytes::from_static(b"short"));
        assert_eq!(c.classify(&junk), CLASS_NORMAL);
    }

    #[test]
    fn ipv4_dst_match() {
        let mut c = Classifier::new();
        let target = Endpoint::host(2, 53);
        c.add_rule(
            Match {
                ipv4_dst: Some(target.ip),
                ..Default::default()
            },
            5,
        );
        assert_eq!(c.classify(&pkt(53)), 5);
        let other = build_udp(Endpoint::host(1, 555), Endpoint::host(9, 53), b"q");
        assert_eq!(c.classify(&other), CLASS_NORMAL);
    }
}
