//! The key-value store case study: LaKe and memcached (§3.1).
//!
//! LaKe is a layered, FPGA-resident memcached cache: an on-chip L1 and a
//! DRAM L2 in front of host software that serves double-miss traffic. This
//! crate implements the whole stack over the real memcached binary
//! protocol:
//!
//! * [`protocol`] — the memcached UDP frame + binary protocol wire format.
//! * [`LruCache`], [`ChunkAllocator`], [`KvStore`] — storage engines.
//! * [`LakeCache`] — the two-level cache logic (§3.1, §5.3).
//! * [`LakeDevice`] — the card as a simulation node: the PE array and
//!   DMA miss path on the shared card shell (`inc_hw::CardShell`), which
//!   supplies the classifier, parking and the embedded network controller
//!   (§9.1).
//! * [`MemcachedServer`] — the software server on the shared server shell
//!   (`inc_hw::ServerShell`) with the calibrated i7 power model (§4.2).
//! * [`KvsClient`] — OSNT/mutilate-style load generation with end-to-end
//!   value verification.

pub mod client;
pub mod device;
pub mod lake;
pub mod memcached;
pub mod protocol;
pub mod store;

pub use client::{
    expected_value, key_name, ClientStats, KvKey, KvOp, KvsClient, OpGen, UniformGen,
};
pub use device::LakeDevice;
pub use inc_hw::{ParkPolicy, RECONFIG_HALT};
pub use lake::{LakeCache, LakeCacheConfig, LakeStats, Lookup};
pub use memcached::{MemcachedConfig, MemcachedServer};
pub use protocol::{
    decode, decode_view, encode_request, encode_response, FrameHeader, Message, MessageView,
    Opcode, ProtocolError, Request, RequestView, Response, ResponseView, Status, MEMCACHED_PORT,
};
pub use store::{ChunkAllocator, KvStore, LruCache};
