//! Network substrate: real wire formats and switching for the
//! *in-network computing on demand* reproduction.
//!
//! All three of the paper's applications are UDP-based (§3.4). This crate
//! provides byte-accurate Ethernet II / IPv4 / UDP encoding and decoding
//! (with checksums), the [`Packet`] type carried by the simulator, the
//! LaKe-style packet [`Classifier`] that the on-demand network controller
//! lives in, and a steerable learning [`L2Switch`].
//!
//! # Examples
//!
//! ```
//! use inc_net::{build_udp, Endpoint, UdpFrame};
//!
//! let client = Endpoint::host(1, 40000);
//! let server = Endpoint::host(2, 11211);
//! let pkt = build_udp(client, server, b"get key");
//! let frame = UdpFrame::parse(&pkt).unwrap();
//! assert_eq!(frame.udp.dst_port, 11211);
//! ```

pub mod addr;
pub mod classifier;
pub mod packet;
pub mod switch;
pub mod wire;

pub use addr::{MacAddr, MacParseError};
/// The refcounted buffer [`Packet::data`] is made of, the write side a
/// frame is built in, and the sink trait payload encoders write to:
/// re-exported so that crates speaking over this substrate share one
/// buffer type.
pub use bytes::{BufMut, Bytes, BytesMut};
pub use classifier::{Class, Classifier, Match, CLASS_NORMAL};
pub use packet::{
    build_reply_with, build_udp, build_udp_with, build_udp_with_ident, Endpoint, Packet, UdpFrame,
};
pub use switch::L2Switch;
pub use wire::{
    internet_checksum, read_array, EthernetHeader, Ipv4Header, UdpHeader, WireError,
    ETHERTYPE_IPV4, ETH_HLEN, IPPROTO_UDP, IPV4_HLEN, UDP_HLEN, UDP_STACK_HLEN,
};
