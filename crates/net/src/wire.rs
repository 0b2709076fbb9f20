//! Ethernet II, IPv4 and UDP wire formats.
//!
//! All three applications in the paper are UDP-based (§3.4); this module
//! implements real header encoding/decoding with checksums so that the
//! hardware and software models exchange byte-accurate frames.

use std::net::Ipv4Addr;

use bytes::BufMut;

use crate::addr::MacAddr;

/// Errors decoding a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the header demands.
    Truncated,
    /// An EtherType other than the one expected by the caller.
    WrongEtherType(u16),
    /// An IP protocol other than the one expected by the caller.
    WrongProtocol(u8),
    /// The IPv4 header checksum does not verify.
    BadIpChecksum,
    /// The UDP checksum is present and does not verify.
    BadUdpChecksum,
    /// An unsupported IPv4 header length (options are not supported).
    BadIhl(u8),
    /// The UDP length field disagrees with the buffer.
    BadLength,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::WrongEtherType(t) => write!(f, "unexpected ethertype 0x{t:04x}"),
            WireError::WrongProtocol(p) => write!(f, "unexpected ip protocol {p}"),
            WireError::BadIpChecksum => write!(f, "bad ipv4 header checksum"),
            WireError::BadUdpChecksum => write!(f, "bad udp checksum"),
            WireError::BadIhl(v) => write!(f, "unsupported ihl {v}"),
            WireError::BadLength => write!(f, "udp length mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// IP protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// Length of an Ethernet II header.
pub const ETH_HLEN: usize = 14;

/// Length of an IPv4 header without options.
pub const IPV4_HLEN: usize = 20;

/// Length of a UDP header.
pub const UDP_HLEN: usize = 8;

/// Combined length of the three headers this stack uses.
pub const UDP_STACK_HLEN: usize = ETH_HLEN + IPV4_HLEN + UDP_HLEN;

/// Reads `N` bytes of `buf` starting at `at` as a fixed-size array, or
/// `None` when the buffer is too short (or `at + N` overflows).
///
/// The building block of every panic-free decoder in the workspace
/// (`inc-lint` rule `panicking-decode`): the codecs of `inc-kvs`,
/// `inc-dns` and `inc-paxos` read their fixed-width fields through it
/// and map `None` to their own "truncated" error, so a short or hostile
/// buffer never becomes an out-of-bounds slice panic.
pub fn read_array<const N: usize>(buf: &[u8], at: usize) -> Option<[u8; N]> {
    buf.get(at..at.checked_add(N)?)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
}

/// [`read_array`] with this module's error.
fn take<const N: usize>(buf: &[u8], at: usize) -> Result<[u8; N], WireError> {
    read_array(buf, at).ok_or(WireError::Truncated)
}

/// A parsed Ethernet II header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Appends the 14 header bytes to `out`.
    pub fn encode<B: BufMut>(&self, out: &mut B) {
        out.put_slice(&self.dst.0);
        out.put_slice(&self.src.0);
        out.put_u16(self.ethertype);
    }

    /// Decodes a header from the front of `buf`.
    pub fn decode(buf: &[u8]) -> Result<(Self, &[u8]), WireError> {
        let dst = MacAddr(take::<6>(buf, 0)?);
        let src = MacAddr(take::<6>(buf, 6)?);
        let ethertype = u16::from_be_bytes(take::<2>(buf, 12)?);
        let rest = buf.get(ETH_HLEN..).ok_or(WireError::Truncated)?;
        Ok((
            EthernetHeader {
                dst,
                src,
                ethertype,
            },
            rest,
        ))
    }
}

/// A parsed IPv4 header (no options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Total length (header + payload) as carried on the wire.
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
}

/// Adds `data`, read as big-endian 16-bit words (an odd last byte is
/// padded with a zero), to a running ones'-complement sum.
///
/// This is the one summing loop behind every checksum in the stack. It
/// reads 32 bits at a time — RFC 1071 §2(C): the sum may be formed in
/// any word size and folded at the end — into a `u64`, which cannot
/// overflow below 16 GiB of input. Only the last piece summed into one
/// accumulator may have an odd length.
fn sum_words(mut acc: u64, data: &[u8]) -> u64 {
    let mut quads = data.chunks_exact(4);
    for q in &mut quads {
        acc += u64::from(u32::from_be_bytes([q[0], q[1], q[2], q[3]]));
    }
    match *quads.remainder() {
        [a] => acc += u64::from(a) << 8,
        [a, b] => acc += u64::from(u16::from_be_bytes([a, b])),
        [a, b, c] => acc += u64::from(u16::from_be_bytes([a, b])) + (u64::from(c) << 8),
        _ => {}
    }
    acc
}

/// Folds a [`sum_words`] accumulator to 16 bits and complements it.
fn fold_checksum(mut acc: u64) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    !(acc as u16)
}

/// Computes the Internet checksum (RFC 1071) over `data`, of any length.
pub fn internet_checksum(data: &[u8]) -> u16 {
    fold_checksum(sum_words(0, data))
}

impl Ipv4Header {
    /// Appends the 20 header bytes (with a valid checksum) to `out`.
    pub fn encode<B: BufMut>(&self, out: &mut B) {
        let mut h = [0u8; IPV4_HLEN];
        h[0] = 0x45; // Version 4, IHL 5; DSCP/ECN stay 0.
        h[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        h[6] = 0x40; // Flags: DF; fragment offset 0.
        h[8] = self.ttl;
        h[9] = self.protocol;
        h[12..16].copy_from_slice(&self.src.octets());
        h[16..20].copy_from_slice(&self.dst.octets());
        // Summed with the checksum field still zero.
        let csum = internet_checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        out.put_slice(&h);
    }

    /// Decodes and checksum-verifies a header from the front of `buf`.
    pub fn decode(buf: &[u8]) -> Result<(Self, &[u8]), WireError> {
        let header = buf.get(..IPV4_HLEN).ok_or(WireError::Truncated)?;
        let v_ihl = *header.first().ok_or(WireError::Truncated)?;
        let ihl = v_ihl & 0x0f;
        if v_ihl >> 4 != 4 || ihl != 5 {
            return Err(WireError::BadIhl(v_ihl));
        }
        if internet_checksum(header) != 0 {
            return Err(WireError::BadIpChecksum);
        }
        let total_len = u16::from_be_bytes(take::<2>(header, 2)?);
        if (total_len as usize) < IPV4_HLEN || total_len as usize > buf.len() {
            return Err(WireError::BadLength);
        }
        let [ttl, protocol] = take::<2>(header, 8)?;
        let hdr = Ipv4Header {
            src: Ipv4Addr::from(take::<4>(header, 12)?),
            dst: Ipv4Addr::from(take::<4>(header, 16)?),
            protocol,
            ttl,
            total_len,
            ident: u16::from_be_bytes(take::<2>(header, 4)?),
        };
        let payload = buf
            .get(IPV4_HLEN..total_len as usize)
            .ok_or(WireError::BadLength)?;
        Ok((hdr, payload))
    }
}

/// A UDP header, parsed or about to be written.
///
/// The checksum covers the RFC 768 pseudo-header (addresses, protocol,
/// UDP length), the header and the payload. Both directions sum those
/// pieces where they lie — [`UdpHeader::for_payload`] when building,
/// [`UdpHeader::decode`] when verifying — so neither copies the
/// datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length including the 8-byte header.
    pub length: u16,
    /// Checksum (0 means absent, as UDP over IPv4 permits).
    pub checksum: u16,
}

/// The ones'-complement sum of the UDP pseudo-header.
fn pseudo_header_sum(src_ip: Ipv4Addr, dst_ip: Ipv4Addr, udp_len: u16) -> u64 {
    let acc = sum_words(0, &src_ip.octets());
    sum_words(acc, &dst_ip.octets()) + u64::from(IPPROTO_UDP) + u64::from(udp_len)
}

impl UdpHeader {
    /// The header of a datagram carrying `payload` between the two
    /// addresses, its checksum computed over the payload in place.
    ///
    /// # Panics
    ///
    /// Panics if header plus payload exceed the 16-bit length field.
    pub fn for_payload(
        src_port: u16,
        dst_port: u16,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        payload: &[u8],
    ) -> UdpHeader {
        let length = UDP_HLEN + payload.len();
        assert!(
            length <= usize::from(u16::MAX),
            "payload of {} bytes does not fit one UDP datagram",
            payload.len()
        );
        let length = length as u16;
        let acc = pseudo_header_sum(src_ip, dst_ip, length)
            + u64::from(src_port)
            + u64::from(dst_port)
            + u64::from(length);
        let csum = fold_checksum(sum_words(acc, payload));
        UdpHeader {
            src_port,
            dst_port,
            length,
            // RFC 768: a computed zero checksum is transmitted as 0xffff.
            checksum: if csum == 0 { 0xffff } else { csum },
        }
    }

    /// Appends the 8 header bytes to `out`.
    pub fn encode<B: BufMut>(&self, out: &mut B) {
        out.put_u16(self.src_port);
        out.put_u16(self.dst_port);
        out.put_u16(self.length);
        out.put_u16(self.checksum);
    }

    /// Decodes and (if present) checksum-verifies a datagram.
    ///
    /// Returns the header and the payload slice.
    pub fn decode(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        buf: &[u8],
    ) -> Result<(Self, &[u8]), WireError> {
        let header = buf.get(..UDP_HLEN).ok_or(WireError::Truncated)?;
        let length = u16::from_be_bytes(take::<2>(header, 4)?);
        if usize::from(length) < UDP_HLEN || usize::from(length) > buf.len() {
            return Err(WireError::BadLength);
        }
        let hdr = UdpHeader {
            src_port: u16::from_be_bytes(take::<2>(header, 0)?),
            dst_port: u16::from_be_bytes(take::<2>(header, 2)?),
            length,
            checksum: u16::from_be_bytes(take::<2>(header, 6)?),
        };
        let datagram = buf.get(..usize::from(length)).ok_or(WireError::BadLength)?;
        // A datagram summed together with its own checksum folds to 0.
        let sum = sum_words(pseudo_header_sum(src_ip, dst_ip, length), datagram);
        if hdr.checksum != 0 && fold_checksum(sum) != 0 {
            return Err(WireError::BadUdpChecksum);
        }
        let payload = datagram.get(UDP_HLEN..).ok_or(WireError::BadLength)?;
        Ok((hdr, payload))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
mod tests {
    use super::*;

    /// Header then payload, the checksum over the RFC 768 pseudo-header.
    fn encode_with_payload(
        src_port: u16,
        dst_port: u16,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        UdpHeader::for_payload(src_port, dst_port, src_ip, dst_ip, payload).encode(out);
        out.extend_from_slice(payload);
    }

    #[test]
    fn ethernet_round_trip() {
        let hdr = EthernetHeader {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: ETHERTYPE_IPV4,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf.extend_from_slice(b"payload");
        let (got, rest) = EthernetHeader::decode(&buf).unwrap();
        assert_eq!(got, hdr);
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn ethernet_truncated() {
        assert_eq!(
            EthernetHeader::decode(&[0u8; 13]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn internet_checksum_known_vector() {
        // Example from RFC 1071 §3: checksum of the sequence is its
        // complement-folded sum.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let c = internet_checksum(&data);
        assert_eq!(c, !0xddf2u16);
    }

    /// RFC 1071 as written: 16-bit words, folded after every addition.
    fn reference_checksum(data: &[u8]) -> u16 {
        let mut sum = 0u32;
        for pair in data.chunks(2) {
            let word = u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]);
            sum += u32::from(word);
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn internet_checksum_handles_every_tail_length() {
        let data: Vec<u8> = (0..67u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(
                internet_checksum(&data[..len]),
                reference_checksum(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn internet_checksum_does_not_overflow_on_large_inputs() {
        // 128 Ki words of 0xffff overflowed the old `u32` accumulator
        // (a debug panic, a silently wrong sum in release). Every word
        // is ones'-complement zero, so the sum stays 0xffff.
        let big = vec![0xffu8; 256 * 1024];
        assert_eq!(internet_checksum(&big), 0);
        assert_eq!(internet_checksum(&big), reference_checksum(&big));
        // The odd tail byte is the high half of a zero-padded word.
        let odd = vec![0xffu8; 256 * 1024 + 1];
        assert_eq!(internet_checksum(&odd), !0xff00);
        assert_eq!(internet_checksum(&odd), reference_checksum(&odd));
    }

    #[test]
    fn udp_checksum_is_the_checksum_of_pseudo_header_and_datagram() {
        let src = Ipv4Addr::new(10, 1, 2, 3);
        let dst = Ipv4Addr::new(192, 168, 200, 77);
        for len in [0usize, 1, 2, 3, 4, 5, 63, 64, 65, 1471] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut datagram = Vec::new();
            encode_with_payload(40_000, 53, src, dst, &payload, &mut datagram);
            // The concatenation the old implementation allocated.
            let mut concat = Vec::new();
            concat.extend_from_slice(&src.octets());
            concat.extend_from_slice(&dst.octets());
            concat.extend_from_slice(&[0, IPPROTO_UDP]);
            concat.extend_from_slice(&(datagram.len() as u16).to_be_bytes());
            concat.extend_from_slice(&datagram);
            assert_eq!(internet_checksum(&concat), 0, "length {len}");
            let (hdr, got) = UdpHeader::decode(src, dst, &datagram).unwrap();
            assert_eq!(got, &payload[..]);
            assert_eq!(hdr, UdpHeader::for_payload(40_000, 53, src, dst, &payload));
        }
    }

    #[test]
    fn a_computed_zero_udp_checksum_is_sent_as_all_ones() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        // The checksum over a zero word is `c`; over the word `c` itself
        // the ones'-complement sum reaches 0xffff and the checksum 0,
        // which RFC 768 reserves for "none" and transmits as 0xffff.
        let c = UdpHeader::for_payload(7, 9, src, dst, &[0, 0]).checksum;
        let payload = c.to_be_bytes();
        let hdr = UdpHeader::for_payload(7, 9, src, dst, &payload);
        assert_eq!(hdr.checksum, 0xffff);
        let mut datagram = Vec::new();
        encode_with_payload(7, 9, src, dst, &payload, &mut datagram);
        let (got, body) = UdpHeader::decode(src, dst, &datagram).unwrap();
        assert_eq!((got, body), (hdr, &payload[..]));
    }

    #[test]
    fn ipv4_round_trip_and_verify() {
        let hdr = Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            protocol: IPPROTO_UDP,
            ttl: 64,
            total_len: (IPV4_HLEN + 4) as u16,
            ident: 0x1234,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let (got, payload) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(got, hdr);
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn ipv4_detects_corruption() {
        let hdr = Ipv4Header {
            src: Ipv4Addr::new(192, 168, 1, 1),
            dst: Ipv4Addr::new(192, 168, 1, 2),
            protocol: IPPROTO_UDP,
            ttl: 64,
            total_len: IPV4_HLEN as u16,
            ident: 0,
        };
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf[12] ^= 0xff; // Corrupt source IP.
        assert_eq!(Ipv4Header::decode(&buf), Err(WireError::BadIpChecksum));
    }

    #[test]
    fn udp_round_trip_with_checksum() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut buf = Vec::new();
        encode_with_payload(1111, 53, src, dst, b"hello dns", &mut buf);
        let (hdr, payload) = UdpHeader::decode(src, dst, &buf).unwrap();
        assert_eq!(hdr.src_port, 1111);
        assert_eq!(hdr.dst_port, 53);
        assert_eq!(payload, b"hello dns");
        assert_ne!(hdr.checksum, 0);
    }

    #[test]
    fn udp_detects_payload_corruption() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let mut buf = Vec::new();
        encode_with_payload(1, 2, src, dst, b"data!", &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        assert_eq!(
            UdpHeader::decode(src, dst, &buf),
            Err(WireError::BadUdpChecksum)
        );
    }

    #[test]
    fn udp_zero_checksum_accepted() {
        let src = Ipv4Addr::new(1, 1, 1, 1);
        let dst = Ipv4Addr::new(2, 2, 2, 2);
        // Hand-build a datagram with checksum 0 (not verified).
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u16.to_be_bytes());
        buf.extend_from_slice(&200u16.to_be_bytes());
        buf.extend_from_slice(&((UDP_HLEN + 2) as u16).to_be_bytes());
        buf.extend_from_slice(&[0, 0]);
        buf.extend_from_slice(&[9, 9]);
        let (hdr, payload) = UdpHeader::decode(src, dst, &buf).unwrap();
        assert_eq!(hdr.checksum, 0);
        assert_eq!(payload, &[9, 9]);
    }

    #[test]
    fn udp_bad_length_rejected() {
        let src = Ipv4Addr::new(1, 1, 1, 1);
        let dst = Ipv4Addr::new(2, 2, 2, 2);
        let mut buf = vec![0u8; UDP_HLEN];
        buf[4..6].copy_from_slice(&3u16.to_be_bytes()); // length < 8
        assert_eq!(UdpHeader::decode(src, dst, &buf), Err(WireError::BadLength));
        buf[4..6].copy_from_slice(&100u16.to_be_bytes()); // length > buffer
        assert_eq!(UdpHeader::decode(src, dst, &buf), Err(WireError::BadLength));
    }
}
