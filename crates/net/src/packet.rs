//! The simulation's network frame, and the free list its buffers
//! recycle through.

use std::net::Ipv4Addr;

use bytes::{BufMut, Bytes, BytesMut};
use inc_sim::{FreeList, Payload};

use crate::addr::MacAddr;
use crate::wire::{
    EthernetHeader, Ipv4Header, UdpHeader, WireError, ETHERTYPE_IPV4, IPPROTO_UDP, IPV4_HLEN,
    UDP_HLEN, UDP_STACK_HLEN,
};

/// An Ethernet frame in flight: nothing but its bytes.
///
/// The frame bytes are reference-counted ([`Bytes`]), so forwarding a
/// packet through switches and classifiers does not copy the payload.
/// Latency is measured where the paper measures it, at the traffic
/// sources: each client times a request from its own in-flight table,
/// so a frame carries no timestamp or request id of its own.
///
/// Dropping the last handle on a frame [`build_udp_with`] made returns
/// its buffer to this thread's free list, for the next frame built here.
#[derive(Clone, Debug)]
pub struct Packet {
    /// The complete frame, starting at the Ethernet header.
    pub data: Bytes,
}

impl Payload for Packet {
    fn wire_bytes(&self) -> usize {
        // Frame + preamble/SFD (8) + FCS (4) + minimum IFG (12): the
        // per-packet cost on the wire, which is what line-rate limits see.
        self.data.len() + 24
    }
}

impl Packet {
    /// Wraps raw frame bytes.
    pub fn from_bytes(data: Bytes) -> Self {
        Packet { data }
    }

    /// Frame length in bytes (excluding preamble/FCS/IFG overhead).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` for an empty buffer (never valid on the wire).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Drop for Packet {
    fn drop(&mut self) {
        // Still shared (a clone in flight, a payload view someone keeps):
        // the last handle frees it as before.
        if let Ok(buf) = std::mem::take(&mut self.data).try_into_mut() {
            recycle(buf);
        }
    }
}

/// The capacity of every recycled frame buffer: a standard Ethernet
/// frame, 1 500 bytes of MTU behind the 14-byte header. Every datagram
/// the paper's applications send fits one (§3.4: small UDP requests and
/// replies); a larger frame — ETC's tail of multi-kilobyte values — is
/// allocated at its exact size and freed, never listed.
const FRAME_CLASS: usize = 1_514;

/// The most buffers one thread's free list keeps: 1.5 MiB at most. A
/// buffer freed while the list is full goes back to the allocator, so a
/// burst of frames in flight does not stay allocated once it drains.
const FREE_FRAMES: usize = 1_024;

thread_local! {
    /// Frame buffers dropped on this thread, each of [`FRAME_CLASS`]
    /// capacity and nobody else's.
    static FREE: FreeList<BytesMut> = const { FreeList::new(FREE_FRAMES) };
}

/// A buffer of `len` zero bytes to build a frame in: off this thread's
/// free list when `len` fits the size class, else a fresh one of exactly
/// `len` bytes.
fn frame_buffer(len: usize) -> BytesMut {
    let mut buf = if len > FRAME_CLASS {
        BytesMut::with_capacity(len)
    } else {
        FREE.try_with(FreeList::take)
            .ok()
            .flatten()
            .unwrap_or_else(|| BytesMut::with_capacity(FRAME_CLASS))
    };
    buf.clear();
    buf.resize(len, 0);
    buf
}

/// Lists `buf` for reuse if it is of the size class and the list has
/// room; frees it otherwise (also once the thread's list is gone). Runs
/// inside `Drop`, so it never panics.
fn recycle(buf: BytesMut) {
    if buf.capacity() == FRAME_CLASS {
        let _ = FREE.try_with(|free| free.give(buf));
    }
}

/// A fully parsed UDP-over-IPv4-over-Ethernet view of a [`Packet`].
#[derive(Clone, Debug)]
pub struct UdpFrame<'a> {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// UDP header.
    pub udp: UdpHeader,
    /// Application payload.
    pub payload: &'a [u8],
}

impl<'a> UdpFrame<'a> {
    /// Parses and verifies all three headers of `packet`, checksums
    /// included, without allocating: the view borrows the packet.
    pub fn parse(packet: &'a Packet) -> Result<Self, WireError> {
        let (eth, rest) = EthernetHeader::decode(&packet.data)?;
        if eth.ethertype != ETHERTYPE_IPV4 {
            return Err(WireError::WrongEtherType(eth.ethertype));
        }
        let (ip, rest) = Ipv4Header::decode(rest)?;
        if ip.protocol != IPPROTO_UDP {
            return Err(WireError::WrongProtocol(ip.protocol));
        }
        let (udp, payload) = UdpHeader::decode(ip.src, ip.dst, rest)?;
        Ok(UdpFrame {
            eth,
            ip,
            udp,
            payload,
        })
    }

    /// The payload as a refcounted view of `packet`, the packet this
    /// frame was parsed from: no copy, but whoever keeps the view keeps
    /// the whole frame allocated.
    pub fn payload_bytes(&self, packet: &Packet) -> Bytes {
        // `parse` admits only option-less IPv4, so the payload always
        // starts right after the three fixed-size headers.
        let shared = packet
            .data
            .slice(UDP_STACK_HLEN..UDP_STACK_HLEN + self.payload.len());
        debug_assert_eq!(shared.as_ptr(), self.payload.as_ptr());
        shared
    }

    /// The endpoint that sent this frame.
    pub fn source(&self) -> Endpoint {
        Endpoint {
            mac: self.eth.src,
            ip: self.ip.src,
            port: self.udp.src_port,
        }
    }

    /// The endpoint this frame is addressed to.
    pub fn destination(&self) -> Endpoint {
        Endpoint {
            mac: self.eth.dst,
            ip: self.ip.dst,
            port: self.udp.dst_port,
        }
    }
}

/// Endpoint identity used when building frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// MAC address.
    pub mac: MacAddr,
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// UDP port.
    pub port: u16,
}

impl Endpoint {
    /// Builds a deterministic endpoint from a small integer and port,
    /// convenient for topology construction.
    pub fn host(n: u32, port: u16) -> Self {
        let b = n.to_be_bytes();
        Endpoint {
            mac: MacAddr::local(n),
            ip: Ipv4Addr::new(10, b[1], b[2], b[3]),
            port,
        }
    }
}

/// Builds a complete UDP frame from `src` to `dst`.
///
/// At most one allocation — the frame, when the free list is empty —
/// whatever the payload: this is [`build_udp_with`] with a payload that
/// is already bytes.
///
/// # Examples
///
/// ```
/// use inc_net::{build_udp, Endpoint, UdpFrame};
///
/// let a = Endpoint::host(1, 4000);
/// let b = Endpoint::host(2, 11211);
/// let pkt = build_udp(a, b, b"get foo");
/// let frame = UdpFrame::parse(&pkt).unwrap();
/// assert_eq!(frame.udp.dst_port, 11211);
/// assert_eq!(frame.payload, b"get foo");
/// ```
///
/// # Panics
///
/// Panics if `payload` exceeds the 65,507-byte UDP maximum (fragmentation
/// is not modelled; the paper's applications use small datagrams).
pub fn build_udp(src: Endpoint, dst: Endpoint, payload: &[u8]) -> Packet {
    build_udp_with(src, dst, payload.len(), |buf| buf.put_slice(payload))
}

/// Builds a UDP frame whose payload the caller encodes in place: the
/// one frame builder every other one calls.
///
/// The frame — 42 header bytes plus `payload_len` — is written into a
/// buffer from this thread's free list, one a dropped [`Packet`] gave
/// back, and only when the list is empty (or the frame is larger than a
/// standard Ethernet frame) into a newly allocated one. `encode` gets
/// the payload as one slice and writes all of it through [`BufMut`];
/// the headers are then written in front, with the lengths and the UDP
/// checksum taken from the payload where it lies. Every byte of the
/// frame is written afresh, so a reused buffer yields the same frame as
/// a new one. No temporary payload buffer, no copy into the `Arc`.
///
/// # Panics
///
/// Panics if `encode` does not write exactly `payload_len` bytes (a
/// codec whose `encoded_len` disagrees with its encoder), or if that
/// exceeds the 65,507-byte UDP maximum.
///
/// # Examples
///
/// ```
/// use inc_net::{build_udp, build_udp_with, BufMut, Endpoint};
///
/// let (a, b) = (Endpoint::host(1, 4000), Endpoint::host(2, 53));
/// let in_place = build_udp_with(a, b, 6, |buf| {
///     buf.put_u16(0xbeef);
///     buf.put_slice(b"body");
/// });
/// assert_eq!(in_place.data, build_udp(a, b, b"\xbe\xefbody").data);
/// ```
pub fn build_udp_with(
    src: Endpoint,
    dst: Endpoint,
    payload_len: usize,
    encode: impl FnOnce(&mut &mut [u8]),
) -> Packet {
    assert!(
        payload_len <= 65_507,
        "payload of {payload_len} bytes does not fit one UDP datagram"
    );
    let mut buf = frame_buffer(UDP_STACK_HLEN + payload_len);
    let (mut headers, payload) = buf.split_at_mut(UDP_STACK_HLEN);
    let mut unwritten = &mut *payload;
    encode(&mut unwritten);
    assert!(
        unwritten.is_empty(),
        "payload encoder wrote a different length than it announced"
    );
    EthernetHeader {
        dst: dst.mac,
        src: src.mac,
        ethertype: ETHERTYPE_IPV4,
    }
    .encode(&mut headers);
    Ipv4Header {
        src: src.ip,
        dst: dst.ip,
        protocol: IPPROTO_UDP,
        ttl: 64,
        total_len: (IPV4_HLEN + UDP_HLEN + payload_len) as u16,
        ident: 0,
    }
    .encode(&mut headers);
    UdpHeader::for_payload(src.port, dst.port, src.ip, dst.ip, payload).encode(&mut headers);
    Packet::from_bytes(buf.freeze())
}

/// Builds the reply to a parsed request: swaps MAC/IP/ports and carries a
/// new payload of `payload_len` bytes that `encode` writes in place, like
/// [`build_udp_with`]. This is exactly what the in-network services do
/// (§10: the request "enters as the request, and comes out as the
/// reply"); once the free list is warm the reply reuses the buffer of a
/// frame dropped earlier, and answering allocates nothing.
pub fn build_reply_with(
    request: &UdpFrame<'_>,
    payload_len: usize,
    encode: impl FnOnce(&mut &mut [u8]),
) -> Packet {
    build_udp_with(request.destination(), request.source(), payload_len, encode)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely
mod tests {
    use super::*;

    #[test]
    fn build_parse_round_trip() {
        let a = Endpoint::host(1, 1234);
        let b = Endpoint::host(2, 53);
        let pkt = build_udp(a, b, b"query");
        let f = UdpFrame::parse(&pkt).unwrap();
        assert_eq!(f.eth.src, a.mac);
        assert_eq!(f.eth.dst, b.mac);
        assert_eq!(f.ip.src, a.ip);
        assert_eq!(f.ip.dst, b.ip);
        assert_eq!(f.udp.src_port, 1234);
        assert_eq!(f.udp.dst_port, 53);
        assert_eq!(f.payload, b"query");
    }

    #[test]
    fn reply_swaps_direction() {
        let a = Endpoint::host(1, 1234);
        let b = Endpoint::host(2, 53);
        let req = build_udp(a, b, b"query");
        let parsed = UdpFrame::parse(&req).unwrap();
        let rep = build_reply_with(&parsed, 6, |buf| buf.put_slice(b"answer"));
        let f = UdpFrame::parse(&rep).unwrap();
        assert_eq!(f.eth.dst, a.mac);
        assert_eq!(f.ip.dst, a.ip);
        assert_eq!(f.udp.dst_port, 1234);
        assert_eq!(f.udp.src_port, 53);
        assert_eq!(f.payload, b"answer");
    }

    #[test]
    fn non_ip_frame_rejected() {
        let mut buf = Vec::new();
        EthernetHeader {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: 0x0806, // ARP
        }
        .encode(&mut buf);
        let pkt = Packet::from_bytes(Bytes::from(buf));
        assert_eq!(
            UdpFrame::parse(&pkt).unwrap_err(),
            WireError::WrongEtherType(0x0806)
        );
    }

    #[test]
    fn a_packet_is_its_frame_handle_and_nothing_more() {
        // Every event that carries a packet carries this much of it.
        assert_eq!(std::mem::size_of::<Packet>(), std::mem::size_of::<Bytes>());
    }

    #[test]
    fn wire_bytes_include_overhead() {
        let pkt = build_udp(Endpoint::host(1, 1), Endpoint::host(2, 2), &[0u8; 18]);
        // 14 (eth) + 20 (ip) + 8 (udp) + 18 payload = 60; +24 overhead.
        assert_eq!(pkt.len(), 60);
        assert_eq!(pkt.wire_bytes(), 84);
    }

    #[test]
    fn endpoint_host_deterministic() {
        assert_eq!(Endpoint::host(3, 9), Endpoint::host(3, 9));
        assert_ne!(Endpoint::host(3, 9).ip, Endpoint::host(4, 9).ip);
    }
}
