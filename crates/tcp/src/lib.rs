//! # hack-tcp — sans-IO TCP stack
//!
//! A from-scratch TCP sufficient to reproduce the paper's traffic
//! dynamics: three-way handshake, pluggable congestion control ([`cc`]:
//! NewReno, CUBIC, HighSpeed-style AIMD, and a BBR-flavoured
//! delivery-rate controller), RFC 6298 retransmission timeouts
//! ([`rto`]), delayed ACKs, RFC 7323 timestamps and SACK generation,
//! with **byte-exact header serialization** ([`wire`]) so the ROHC
//! compressor in `hack-rohc` operates on genuine wire bytes.
//!
//! Payload contents are synthetic (only lengths travel), which is
//! exactly what a network simulator needs and lets retransmission work
//! without a send buffer. The endpoint ([`conn::Connection`]) is sans-IO:
//! `on_packet` / `on_timer` / `poll_send` return packets to transmit and
//! never touch a clock or socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod conn;
pub mod rto;
pub mod seq;
pub mod wire;

pub use cc::{
    AckContext, BbrLite, BbrMode, CcKind, CcSnapshot, CongestionControl, Cubic, Highspeed, NewReno,
    Phase, RateSample,
};
pub use conn::{Connection, SendBudget, TcpConfig, TcpState, TcpStats};
pub use rto::RtoEstimator;
pub use seq::TcpSeq;
pub use wire::{
    flags, FiveTuple, Ipv4Addr, Ipv4Packet, ParseError, SackBlocks, TcpOption, TcpOptions,
    TcpSegment, Transport,
};
