//! Byte-exact IPv4 and TCP header representation.
//!
//! Packets travel through the simulator structurally, but headers
//! serialize to real wire bytes: the ROHC compressor in `hack-rohc`
//! compresses genuine header bytes and the decompressor reconstitutes
//! them, validated end-to-end by checksums — the same property the paper
//! relies on for "reconstituting the TCP ACKs" at the AP. Payload bytes
//! are synthetic (zeros) since only their length affects airtime.

use std::fmt;

use hack_inline::InlineVec;

use crate::seq::TcpSeq;

/// Option list of a segment. Two slots cover every segment after the
/// handshake (timestamps, plus SACK blocks on a duplicate ACK); only a
/// SYN's four spill. Packets are moved and cloned by value at every hop,
/// so unused slots are paid for in every copy: two slots of 40 bytes keep
/// a packet smaller than four of 24 did before SACK blocks went inline.
pub type TcpOptions = InlineVec<TcpOption, 2>;

/// The blocks of one SACK option, inline: the option space holds at most
/// four (three beside timestamps), so neither building, cloning nor
/// parsing a SACK-bearing ACK touches the heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SackBlocks {
    len: u8,
    /// Slots past `len` stay zeroed, which is what lets equality derive.
    blocks: [(TcpSeq, TcpSeq); 4],
}

impl std::ops::Deref for SackBlocks {
    type Target = [(TcpSeq, TcpSeq)];
    fn deref(&self) -> &Self::Target {
        &self.blocks[..usize::from(self.len)]
    }
}

impl FromIterator<(TcpSeq, TcpSeq)> for SackBlocks {
    /// Panics on a fifth block: no TCP header has room for one.
    fn from_iter<I: IntoIterator<Item = (TcpSeq, TcpSeq)>>(iter: I) -> Self {
        let mut out = SackBlocks::default();
        for block in iter {
            out.blocks[usize::from(out.len)] = block;
            out.len += 1;
        }
        out
    }
}

/// An IPv4 address (stored as a `u32` for arithmetic convenience).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Dotted-quad constructor.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(u32::from_be_bytes([a, b, c, d]))
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// TCP flag bits (subset used by the simulator).
pub mod flags {
    /// No more data from sender.
    pub const FIN: u8 = 0x01;
    /// Synchronize sequence numbers.
    pub const SYN: u8 = 0x02;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// Push function.
    pub const PSH: u8 = 0x08;
    /// Acknowledgment field significant.
    pub const ACK: u8 = 0x10;
}

/// The connection 5-tuple (protocol is implicitly TCP where used).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Source address.
    pub src_ip: Ipv4Addr,
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// IP protocol number (6 = TCP).
    pub protocol: u8,
}

impl FiveTuple {
    /// The reverse direction of this flow.
    pub fn reversed(self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// The 13 bytes hashed for HACK's CID computation (§3.3.2): both
    /// addresses, both ports, protocol.
    pub fn bytes(&self) -> [u8; 13] {
        let mut out = [0u8; 13];
        out[0..4].copy_from_slice(&self.src_ip.0.to_be_bytes());
        out[4..8].copy_from_slice(&self.dst_ip.0.to_be_bytes());
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out[12] = self.protocol;
        out
    }
}

/// A TCP option as carried in the header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (SYN only).
    Mss(u16),
    /// Window scale shift (SYN only).
    WindowScale(u8),
    /// SACK permitted (SYN only).
    SackPermitted,
    /// RFC 7323 timestamps.
    Timestamps {
        /// Sender's timestamp clock value.
        tsval: u32,
        /// Echo of the peer's most recent tsval.
        tsecr: u32,
    },
    /// Selective acknowledgment blocks (up to 3 with timestamps).
    Sack(SackBlocks),
}

/// Vacant-slot filler for [`TcpOptions`] inline storage; never
/// observable through the list's public length.
impl Default for TcpOption {
    fn default() -> Self {
        TcpOption::SackPermitted
    }
}

impl TcpOption {
    /// Encoded length in bytes (excluding alignment padding).
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Sack(blocks) => 2 + blocks.len() * 8,
        }
    }

    fn encode(&self, out: &mut InlineVec<u8, 80>) {
        match self {
            TcpOption::Mss(v) => {
                out.push(2);
                out.push(4);
                out.extend_from_slice(&v.to_be_bytes());
            }
            TcpOption::WindowScale(s) => {
                out.push(3);
                out.push(3);
                out.push(*s);
            }
            TcpOption::SackPermitted => {
                out.push(4);
                out.push(2);
            }
            TcpOption::Timestamps { tsval, tsecr } => {
                out.push(8);
                out.push(10);
                out.extend_from_slice(&tsval.to_be_bytes());
                out.extend_from_slice(&tsecr.to_be_bytes());
            }
            TcpOption::Sack(blocks) => {
                out.push(5);
                out.push((2 + blocks.len() * 8) as u8);
                for (l, r) in blocks.iter() {
                    out.extend_from_slice(&l.0.to_be_bytes());
                    out.extend_from_slice(&r.0.to_be_bytes());
                }
            }
        }
    }
}

/// A TCP segment: header fields plus a synthetic payload length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: TcpSeq,
    /// Acknowledgment number.
    pub ack: TcpSeq,
    /// Flag bits (see [`flags`]).
    pub flags: u8,
    /// On-wire (unscaled) window field.
    pub window: u16,
    /// Options.
    pub options: TcpOptions,
    /// Payload length in bytes (contents are synthetic zeros).
    pub payload_len: u32,
}

impl TcpSegment {
    /// TCP header length: 20 bytes + options padded to a 4-byte multiple.
    pub fn header_len(&self) -> u32 {
        let opts: usize = self.options.iter().map(TcpOption::wire_len).sum();
        20 + (opts.div_ceil(4) * 4) as u32
    }

    /// Total TCP length (header + payload).
    pub fn wire_len(&self) -> u32 {
        self.header_len() + self.payload_len
    }

    /// Is this a pure acknowledgment (no payload, no SYN/FIN/RST)?
    pub fn is_pure_ack(&self) -> bool {
        self.payload_len == 0
            && self.flags & flags::ACK != 0
            && self.flags & (flags::SYN | flags::FIN | flags::RST) == 0
    }

    /// The timestamps option, if present.
    pub fn timestamps(&self) -> Option<(u32, u32)> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Timestamps { tsval, tsecr } => Some((*tsval, *tsecr)),
            _ => None,
        })
    }

    /// The SACK blocks, if present.
    pub fn sack_blocks(&self) -> Option<&[(TcpSeq, TcpSeq)]> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Sack(b) => Some(&b[..]),
            _ => None,
        })
    }
}

/// A transport-layer datagram inside an IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// TCP segment.
    Tcp(TcpSegment),
    /// UDP datagram (used by the paper's UDP baselines).
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
        /// Payload length.
        payload_len: u32,
    },
}

impl Transport {
    /// Length of the transport header + payload.
    pub fn wire_len(&self) -> u32 {
        match self {
            Transport::Tcp(t) => t.wire_len(),
            Transport::Udp { payload_len, .. } => 8 + payload_len,
        }
    }

    /// IP protocol number.
    pub fn protocol(&self) -> u8 {
        match self {
            Transport::Tcp(_) => 6,
            Transport::Udp { .. } => 17,
        }
    }
}

/// An IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Identification field (incremented per packet by senders).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// The transport payload.
    pub transport: Transport,
}

/// Errors from parsing wire bytes back into packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Input shorter than the fixed header.
    Truncated,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// TCP checksum mismatch.
    BadTcpChecksum,
    /// Malformed or unknown option encoding.
    BadOption,
    /// Header length fields are inconsistent with the buffer.
    BadLength,
    /// Not a protocol this parser understands.
    UnsupportedProtocol(u8),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "truncated packet"),
            ParseError::BadIpChecksum => write!(f, "bad IPv4 header checksum"),
            ParseError::BadTcpChecksum => write!(f, "bad TCP checksum"),
            ParseError::BadOption => write!(f, "malformed TCP option"),
            ParseError::BadLength => write!(f, "inconsistent length fields"),
            ParseError::UnsupportedProtocol(p) => write!(f, "unsupported protocol {p}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl Ipv4Packet {
    /// Total packet length (IP header + transport).
    pub fn wire_len(&self) -> u32 {
        20 + self.transport.wire_len()
    }

    /// The flow's 5-tuple.
    pub fn five_tuple(&self) -> FiveTuple {
        let (sp, dp) = match &self.transport {
            Transport::Tcp(t) => (t.src_port, t.dst_port),
            Transport::Udp {
                src_port, dst_port, ..
            } => (*src_port, *dst_port),
        };
        FiveTuple {
            src_ip: self.src,
            dst_ip: self.dst,
            src_port: sp,
            dst_port: dp,
            protocol: self.transport.protocol(),
        }
    }

    /// Serialize the IP + TCP headers to wire bytes with valid checksums
    /// (payload treated as zeros). Only TCP packets serialize — this is
    /// the input to the ROHC compressor.
    ///
    /// # Panics
    /// Panics for UDP packets (never compressed by HACK).
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut out = InlineVec::new();
        self.header_bytes_into(&mut out);
        out.to_vec()
    }

    /// [`Ipv4Packet::header_bytes`] into a caller-provided buffer
    /// (cleared first): one buffer, no intermediate IP/TCP/pseudo-header
    /// vectors, and no allocation for any header that fits the 80 bytes
    /// an IPv4 and a TCP header can span.
    ///
    /// # Panics
    /// Panics for UDP packets (never compressed by HACK).
    pub fn header_bytes_into(&self, out: &mut InlineVec<u8, 80>) {
        let Transport::Tcp(tcp) = &self.transport else {
            panic!("header_bytes is only defined for TCP packets");
        };
        out.clear();

        let total_len = self.wire_len() as u16;
        out.push(0x45); // version 4, IHL 5
        out.push(0); // DSCP/ECN
        out.extend_from_slice(&total_len.to_be_bytes());
        out.extend_from_slice(&self.ident.to_be_bytes());
        out.extend_from_slice(&[0x40, 0x00]); // DF, no fragment offset
        out.push(self.ttl);
        out.push(6); // TCP
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&self.src.0.to_be_bytes());
        out.extend_from_slice(&self.dst.0.to_be_bytes());
        let cks = ones_complement_sum(&out[..20]);
        out[10..12].copy_from_slice(&cks.to_be_bytes());

        // TCP header, in place after the IP header.
        out.extend_from_slice(&tcp.src_port.to_be_bytes());
        out.extend_from_slice(&tcp.dst_port.to_be_bytes());
        out.extend_from_slice(&tcp.seq.0.to_be_bytes());
        out.extend_from_slice(&tcp.ack.0.to_be_bytes());
        let data_offset = (tcp.header_len() / 4) as u8;
        out.push(data_offset << 4);
        out.push(tcp.flags);
        out.extend_from_slice(&tcp.window.to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // urgent pointer
        for opt in &tcp.options {
            opt.encode(out);
        }
        while !(out.len() - 20).is_multiple_of(4) {
            out.push(1); // NOP padding
        }
        debug_assert_eq!(out.len() as u32, 20 + tcp.header_len());

        // TCP checksum over pseudo-header + header + zero payload; the
        // pseudo-header lives on the stack, not in a Vec.
        let mut pseudo = [0u8; 12];
        pseudo[0..4].copy_from_slice(&self.src.0.to_be_bytes());
        pseudo[4..8].copy_from_slice(&self.dst.0.to_be_bytes());
        pseudo[9] = 6;
        pseudo[10..12].copy_from_slice(&(tcp.wire_len() as u16).to_be_bytes());
        // Zero payload contributes nothing to the sum.
        let cks = ones_complement_sum_2(&pseudo, &out[20..]);
        out[36..38].copy_from_slice(&cks.to_be_bytes());
    }

    /// Parse header bytes produced by [`Ipv4Packet::header_bytes`],
    /// validating both checksums. The payload length is recovered from
    /// the IP total-length field.
    pub fn from_header_bytes(bytes: &[u8]) -> Result<Ipv4Packet, ParseError> {
        if bytes.len() < 40 {
            return Err(ParseError::Truncated);
        }
        if bytes[0] != 0x45 {
            return Err(ParseError::BadLength);
        }
        if ones_complement_sum(&bytes[..20]) != 0 {
            return Err(ParseError::BadIpChecksum);
        }
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as u32;
        let ident = u16::from_be_bytes([bytes[4], bytes[5]]);
        let ttl = bytes[8];
        let protocol = bytes[9];
        if protocol != 6 {
            return Err(ParseError::UnsupportedProtocol(protocol));
        }
        let src = Ipv4Addr(u32::from_be_bytes([
            bytes[12], bytes[13], bytes[14], bytes[15],
        ]));
        let dst = Ipv4Addr(u32::from_be_bytes([
            bytes[16], bytes[17], bytes[18], bytes[19],
        ]));

        let t = &bytes[20..];
        if t.len() < 20 {
            return Err(ParseError::Truncated);
        }
        let data_offset = (t[12] >> 4) as usize * 4;
        if data_offset < 20 || t.len() < data_offset {
            return Err(ParseError::BadLength);
        }
        let tcp_len = total_len - 20;
        let payload_len = tcp_len
            .checked_sub(data_offset as u32)
            .ok_or(ParseError::BadLength)?;

        // Validate the TCP checksum (payload is zeros by construction).
        let mut pseudo = [0u8; 12];
        pseudo[0..4].copy_from_slice(&src.0.to_be_bytes());
        pseudo[4..8].copy_from_slice(&dst.0.to_be_bytes());
        pseudo[9] = 6;
        pseudo[10..12].copy_from_slice(&(tcp_len as u16).to_be_bytes());
        if ones_complement_sum_2(&pseudo, &t[..data_offset]) != 0 {
            return Err(ParseError::BadTcpChecksum);
        }

        let mut options = TcpOptions::new();
        let mut i = 20;
        while i < data_offset {
            match t[i] {
                0 => break,
                1 => {
                    i += 1;
                }
                kind => {
                    if i + 1 >= data_offset {
                        return Err(ParseError::BadOption);
                    }
                    let len = t[i + 1] as usize;
                    if len < 2 || i + len > data_offset {
                        return Err(ParseError::BadOption);
                    }
                    let body = &t[i + 2..i + len];
                    match kind {
                        2 if len == 4 => {
                            options.push(TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])));
                        }
                        3 if len == 3 => options.push(TcpOption::WindowScale(body[0])),
                        4 if len == 2 => options.push(TcpOption::SackPermitted),
                        8 if len == 10 => options.push(TcpOption::Timestamps {
                            tsval: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                            tsecr: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                        }),
                        5 if len >= 10 && (len - 2).is_multiple_of(8) => {
                            let blocks = body
                                .chunks(8)
                                .map(|c| {
                                    (
                                        TcpSeq(u32::from_be_bytes([c[0], c[1], c[2], c[3]])),
                                        TcpSeq(u32::from_be_bytes([c[4], c[5], c[6], c[7]])),
                                    )
                                })
                                .collect();
                            options.push(TcpOption::Sack(blocks));
                        }
                        _ => return Err(ParseError::BadOption),
                    }
                    i += len;
                }
            }
        }

        Ok(Ipv4Packet {
            src,
            dst,
            ident,
            ttl,
            transport: Transport::Tcp(TcpSegment {
                src_port: u16::from_be_bytes([t[0], t[1]]),
                dst_port: u16::from_be_bytes([t[2], t[3]]),
                seq: TcpSeq(u32::from_be_bytes([t[4], t[5], t[6], t[7]])),
                ack: TcpSeq(u32::from_be_bytes([t[8], t[9], t[10], t[11]])),
                flags: t[13],
                window: u16::from_be_bytes([t[14], t[15]]),
                options,
                payload_len,
            }),
        })
    }
}

/// RFC 1071 ones-complement checksum.
fn ones_complement_sum(bytes: &[u8]) -> u16 {
    fold(raw_sum(bytes))
}

/// RFC 1071 checksum over the logical concatenation `a ++ b` (used so
/// the pseudo-header never has to be copied in front of the TCP
/// header). `a` must be even-length for the concatenation to preserve
/// 16-bit word alignment.
fn ones_complement_sum_2(a: &[u8], b: &[u8]) -> u16 {
    debug_assert!(a.len().is_multiple_of(2));
    fold(raw_sum(a) + raw_sum(b))
}

fn raw_sum(bytes: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut chunks = bytes.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let Some(&b) = chunks.remainder().first() {
        sum += u32::from(u16::from_be_bytes([b, 0]));
    }
    sum
}

fn fold(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pure_ack() -> Ipv4Packet {
        Ipv4Packet {
            src: Ipv4Addr::new(192, 168, 1, 2),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            ident: 77,
            ttl: 64,
            transport: Transport::Tcp(TcpSegment {
                src_port: 50000,
                dst_port: 5001,
                seq: TcpSeq(1000),
                ack: TcpSeq(123_456_789),
                flags: flags::ACK,
                window: 8192,
                options: vec![TcpOption::Timestamps {
                    tsval: 111,
                    tsecr: 222,
                }]
                .into(),
                payload_len: 0,
            }),
        }
    }

    #[test]
    fn pure_ack_with_timestamps_is_52_bytes() {
        // Matches the paper's Table 2: 9060 ACKs = 471120 bytes => 52 each
        // (20 IP + 20 TCP + 12 timestamps).
        assert_eq!(pure_ack().wire_len(), 52);
    }

    #[test]
    fn header_roundtrip() {
        let p = pure_ack();
        let bytes = p.header_bytes();
        assert_eq!(bytes.len(), 52);
        let q = Ipv4Packet::from_header_bytes(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn roundtrip_with_all_options() {
        let p = Ipv4Packet {
            src: Ipv4Addr::new(1, 2, 3, 4),
            dst: Ipv4Addr::new(5, 6, 7, 8),
            ident: 9,
            ttl: 63,
            transport: Transport::Tcp(TcpSegment {
                src_port: 1,
                dst_port: 2,
                seq: TcpSeq(u32::MAX - 3),
                ack: TcpSeq(17),
                flags: flags::SYN | flags::ACK,
                window: 65535,
                options: vec![
                    TcpOption::Mss(1460),
                    TcpOption::WindowScale(6),
                    TcpOption::SackPermitted,
                    TcpOption::Timestamps {
                        tsval: 0xDEAD_BEEF,
                        tsecr: 0,
                    },
                ]
                .into(),
                payload_len: 0,
            }),
        };
        let q = Ipv4Packet::from_header_bytes(&p.header_bytes()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn roundtrip_with_sack_blocks() {
        let p = Ipv4Packet {
            src: Ipv4Addr::new(1, 1, 1, 1),
            dst: Ipv4Addr::new(2, 2, 2, 2),
            ident: 3,
            ttl: 64,
            transport: Transport::Tcp(TcpSegment {
                src_port: 80,
                dst_port: 8080,
                seq: TcpSeq(5),
                ack: TcpSeq(1000),
                flags: flags::ACK,
                window: 100,
                options: vec![
                    TcpOption::Timestamps { tsval: 5, tsecr: 6 },
                    TcpOption::Sack(
                        [(TcpSeq(2000), TcpSeq(3460)), (TcpSeq(5000), TcpSeq(6460))]
                            .into_iter()
                            .collect(),
                    ),
                ]
                .into(),
                payload_len: 0,
            }),
        };
        let q = Ipv4Packet::from_header_bytes(&p.header_bytes()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn data_segment_length_accounting() {
        let mut p = pure_ack();
        if let Transport::Tcp(t) = &mut p.transport {
            t.payload_len = 1448;
        }
        // 20 + 32 + 1448 = 1500: a full MTU segment with timestamps.
        assert_eq!(p.wire_len(), 1500);
        let q = Ipv4Packet::from_header_bytes(&p.header_bytes()).unwrap();
        assert_eq!(q.wire_len(), 1500);
    }

    #[test]
    fn corrupted_bytes_fail_checksum() {
        let p = pure_ack();
        let mut bytes = p.header_bytes();
        bytes[25] ^= 0xFF; // flip a TCP seq byte
        assert_eq!(
            Ipv4Packet::from_header_bytes(&bytes),
            Err(ParseError::BadTcpChecksum)
        );
        let mut bytes2 = p.header_bytes();
        bytes2[15] ^= 0x01; // flip an IP src byte
        assert_eq!(
            Ipv4Packet::from_header_bytes(&bytes2),
            Err(ParseError::BadIpChecksum)
        );
    }

    #[test]
    fn truncation_detected() {
        let bytes = pure_ack().header_bytes();
        assert_eq!(
            Ipv4Packet::from_header_bytes(&bytes[..30]),
            Err(ParseError::Truncated)
        );
    }

    #[test]
    fn pure_ack_predicate() {
        let p = pure_ack();
        let Transport::Tcp(t) = &p.transport else {
            unreachable!()
        };
        assert!(t.is_pure_ack());
        let mut syn = t.clone();
        syn.flags |= flags::SYN;
        assert!(!syn.is_pure_ack());
        let mut data = t.clone();
        data.payload_len = 1;
        assert!(!data.is_pure_ack());
    }

    #[test]
    fn five_tuple_reversal_and_bytes() {
        let ft = pure_ack().five_tuple();
        assert_eq!(ft.protocol, 6);
        let r = ft.reversed();
        assert_eq!(r.src_ip, ft.dst_ip);
        assert_eq!(r.dst_port, ft.src_port);
        assert_eq!(ft.bytes().len(), 13);
        assert_ne!(ft.bytes(), r.bytes());
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example-style check: sum of own checksum is zero.
        let p = pure_ack();
        let bytes = p.header_bytes();
        assert_eq!(ones_complement_sum(&bytes[..20]), 0);
    }
}
