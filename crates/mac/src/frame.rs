//! 802.11 MAC frame types as carried by the simulated medium.
//!
//! Frames are represented structurally; wire sizes are accounted exactly
//! so airtime (and therefore every throughput number) is faithful:
//!
//! * QoS Data MPDU: 26-byte header + 8-byte LLC/SNAP + MSDU + 4-byte FCS
//!   ⇒ a 1500-byte IP datagram becomes a 1538-byte MPDU, and 42 of them
//!   fill a 64 KB A-MPDU — the batch size the paper's §4.3 buffer sizing
//!   is built around.
//! * ACK: 14 bytes. Block ACK (compressed bitmap): 32 bytes. BAR: 24.
//! * A HACK-augmented (Block) ACK additionally carries an opaque
//!   compressed-TCP-ACK blob, prefixed by a 2-byte length field. The MAC
//!   treats the blob as opaque bits, exactly as the paper requires of the
//!   NIC ("all TCP-aware processing must occur in the host software").
//!
//! The MORE DATA bit is the stock 802.11 power-save bit, reused by HACK;
//! the SYNC bit occupies a reserved Frame Control bit (§3.4, Figure 8).

use hack_phy::StationId;

/// A 12-bit, wrapping 802.11 sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(u16);

/// Sequence-number space size (12 bits).
pub const SEQ_SPACE: u16 = 4096;

impl SeqNum {
    /// Construct from a raw value (wrapped into 12 bits).
    pub fn new(v: u16) -> Self {
        SeqNum(v % SEQ_SPACE)
    }

    /// Raw 12-bit value.
    pub fn value(self) -> u16 {
        self.0
    }

    /// The next sequence number, wrapping at 4096.
    pub fn next(self) -> SeqNum {
        SeqNum((self.0 + 1) % SEQ_SPACE)
    }

    /// Advance by `n`, wrapping.
    ///
    /// Deliberately an inherent method, not `ops::Add`: MAC sequence
    /// arithmetic is modulo 4096 and should look like a method call.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, n: u16) -> SeqNum {
        SeqNum((self.0 + n % SEQ_SPACE) % SEQ_SPACE)
    }

    /// Forward distance from `other` to `self` modulo 4096.
    pub fn dist_from(self, other: SeqNum) -> u16 {
        (self.0 + SEQ_SPACE - other.0) % SEQ_SPACE
    }

    /// Wrapping-window comparison: is `self` ahead of `other`? True when
    /// the forward distance from `other` is in (0, 2048).
    pub fn is_newer_than(self, other: SeqNum) -> bool {
        let d = self.dist_from(other);
        d > 0 && d < SEQ_SPACE / 2
    }
}

/// Opaque compressed-TCP-ACK bytes appended to a link-layer ACK. The MAC
/// and NIC never look inside; only the HACK drivers in `hack-core` do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HackBlob {
    /// The ROHC-compressed TCP ACK frame (concatenated compressed ACKs).
    pub bytes: Vec<u8>,
}

impl HackBlob {
    /// Wire cost of carrying this blob on an LL ACK: a 2-byte length
    /// field plus the blob itself.
    pub fn wire_len(&self) -> u32 {
        2 + self.bytes.len() as u32
    }
}

/// The payload a data MPDU carries. The MAC is payload-agnostic; upper
/// layers implement this for their packet type.
pub trait Msdu: Clone + std::fmt::Debug {
    /// Length in bytes of the MSDU as handed to the MAC (e.g. an IP
    /// datagram's total length).
    fn wire_len(&self) -> u32;

    /// Whether this MSDU is a transport-layer acknowledgment packet
    /// (e.g. a native TCP ACK). Used only for the per-class time
    /// accounting behind the paper's Table 3 — never for protocol
    /// decisions, which would violate the "NIC treats payloads as opaque"
    /// design goal.
    fn is_transport_ack(&self) -> bool {
        false
    }
}

/// Byte-size constants for frame overheads.
pub mod sizes {
    /// QoS Data MAC header (FC 2 + Dur 2 + 3 addresses 18 + Seq 2 + QoS 2).
    pub const QOS_DATA_HEADER: u32 = 26;
    /// Frame check sequence.
    pub const FCS: u32 = 4;
    /// LLC/SNAP encapsulation of an IP datagram.
    pub const LLC_SNAP: u32 = 8;
    /// Total MAC-layer overhead added to an MSDU.
    pub const DATA_OVERHEAD: u32 = QOS_DATA_HEADER + LLC_SNAP + FCS;
    /// ACK control frame.
    pub const ACK: u32 = 14;
    /// Compressed-bitmap Block ACK control frame.
    pub const BLOCK_ACK: u32 = 32;
    /// Block ACK Request control frame.
    pub const BAR: u32 = 24;
    /// A-MPDU subframe delimiter.
    pub const AMPDU_DELIMITER: u32 = 4;
}

/// One data MPDU.
#[derive(Debug, Clone)]
pub struct DataMpdu<M> {
    /// Transmitter.
    pub src: StationId,
    /// Receiver.
    pub dst: StationId,
    /// 12-bit sequence number.
    pub seq: SeqNum,
    /// Retry bit: set on retransmissions.
    pub retry: bool,
    /// MORE DATA bit: the transmitter has further frames queued for this
    /// receiver beyond this batch (HACK's safe-to-hold signal, §3.2).
    pub more_data: bool,
    /// SYNC bit: the transmitter exhausted BAR retries and moved on; the
    /// receiver must retain and re-send its compressed ACK state (§3.4).
    pub sync: bool,
    /// The MSDU.
    pub payload: M,
}

impl<M: Msdu> DataMpdu<M> {
    /// MPDU length on the wire.
    pub fn wire_len(&self) -> u32 {
        sizes::DATA_OVERHEAD + self.payload.wire_len()
    }
}

/// Bitmap of received MPDUs relative to a starting sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckBitmap {
    /// First sequence number the bitmap describes.
    pub start: SeqNum,
    /// Bit `i` set ⇔ `start + i` was received. 64 MPDUs per window.
    pub bits: u64,
}

impl AckBitmap {
    /// An empty bitmap starting at `start`.
    pub fn new(start: SeqNum) -> Self {
        AckBitmap { start, bits: 0 }
    }

    /// Mark `seq` received if it falls within the 64-wide window.
    pub fn set(&mut self, seq: SeqNum) {
        let d = seq.dist_from(self.start);
        if d < 64 {
            self.bits |= 1 << d;
        }
    }

    /// Whether `seq` is marked received.
    pub fn contains(&self, seq: SeqNum) -> bool {
        let d = seq.dist_from(self.start);
        d < 64 && (self.bits >> d) & 1 == 1
    }

    /// Iterate over the received sequence numbers.
    pub fn iter(&self) -> impl Iterator<Item = SeqNum> + '_ {
        (0u16..64)
            .filter(|&i| (self.bits >> i) & 1 == 1)
            .map(move |i| self.start.add(i))
    }

    /// Number of received MPDUs recorded.
    pub fn count(&self) -> u32 {
        self.bits.count_ones()
    }
}

/// A link-layer control or data frame on the air.
#[derive(Debug, Clone)]
pub enum Frame<M> {
    /// A (possibly aggregated) data MPDU. An A-MPDU appears on the medium
    /// as several `Data` frames inside one PPDU.
    Data(DataMpdu<M>),
    /// Simple ACK for a single MPDU, optionally HACK-augmented.
    Ack {
        /// Transmitter of the ACK.
        src: StationId,
        /// The station being acknowledged.
        dst: StationId,
        /// Compressed TCP ACKs riding on this LL ACK (TCP/HACK).
        hack: Option<HackBlob>,
    },
    /// Block ACK for an A-MPDU, optionally HACK-augmented.
    BlockAck {
        /// Transmitter of the Block ACK.
        src: StationId,
        /// The station being acknowledged.
        dst: StationId,
        /// Which MPDUs were received.
        bitmap: AckBitmap,
        /// Compressed TCP ACKs riding on this Block ACK (TCP/HACK).
        hack: Option<HackBlob>,
    },
    /// Block ACK Request: solicits a fresh Block ACK when the original
    /// was not received.
    BlockAckReq {
        /// Transmitter of the request.
        src: StationId,
        /// Receiver expected to answer with a Block ACK.
        dst: StationId,
        /// Window start the requester cares about.
        start: SeqNum,
    },
}

/// Which kind of frame a [`Frame`] is, without its contents — all a
/// station needs to know about a frame addressed to someone else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A data MPDU.
    Data,
    /// A plain ACK.
    Ack,
    /// A Block ACK.
    BlockAck,
    /// A Block ACK Request.
    BlockAckReq,
}

impl<M> Frame<M> {
    /// The frame's kind.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Data(_) => FrameKind::Data,
            Frame::Ack { .. } => FrameKind::Ack,
            Frame::BlockAck { .. } => FrameKind::BlockAck,
            Frame::BlockAckReq { .. } => FrameKind::BlockAckReq,
        }
    }
}

impl<M: Msdu> Frame<M> {
    /// The transmitting station.
    pub fn src(&self) -> StationId {
        match self {
            Frame::Data(d) => d.src,
            Frame::Ack { src, .. } => *src,
            Frame::BlockAck { src, .. } => *src,
            Frame::BlockAckReq { src, .. } => *src,
        }
    }

    /// The intended receiver.
    pub fn dst(&self) -> StationId {
        match self {
            Frame::Data(d) => d.dst,
            Frame::Ack { dst, .. } => *dst,
            Frame::BlockAck { dst, .. } => *dst,
            Frame::BlockAckReq { dst, .. } => *dst,
        }
    }

    /// Frame length on the wire in bytes.
    pub fn wire_len(&self) -> u32 {
        match self {
            Frame::Data(d) => d.wire_len(),
            Frame::Ack { hack, .. } => sizes::ACK + hack.as_ref().map_or(0, HackBlob::wire_len),
            Frame::BlockAck { hack, .. } => {
                sizes::BLOCK_ACK + hack.as_ref().map_or(0, HackBlob::wire_len)
            }
            Frame::BlockAckReq { .. } => sizes::BAR,
        }
    }
}

/// Length on the wire of an A-MPDU aggregating MPDUs of the given sizes:
/// each subframe is a 4-byte delimiter plus the MPDU padded to a 4-byte
/// boundary.
pub fn ampdu_wire_len(mpdu_lens: &[u32]) -> u32 {
    mpdu_lens.iter().map(|&l| ampdu_subframe_len(l)).sum()
}

/// What one MPDU of `mpdu_len` bytes adds to an A-MPDU: the delimiter
/// plus the MPDU padded to a 4-byte boundary.
pub fn ampdu_subframe_len(mpdu_len: u32) -> u32 {
    sizes::AMPDU_DELIMITER + mpdu_len.div_ceil(4) * 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Blob(u32);
    impl Msdu for Blob {
        fn wire_len(&self) -> u32 {
            self.0
        }
    }

    #[test]
    fn seq_wraps_at_4096() {
        assert_eq!(SeqNum::new(4095).next(), SeqNum::new(0));
        assert_eq!(SeqNum::new(4096), SeqNum::new(0));
        assert_eq!(SeqNum::new(10).add(4090), SeqNum::new(4));
    }

    #[test]
    fn seq_ordering_across_wrap() {
        assert!(SeqNum::new(1).is_newer_than(SeqNum::new(4095)));
        assert!(!SeqNum::new(4095).is_newer_than(SeqNum::new(1)));
        assert!(SeqNum::new(100).is_newer_than(SeqNum::new(99)));
        assert!(!SeqNum::new(99).is_newer_than(SeqNum::new(99)));
        assert_eq!(SeqNum::new(3).dist_from(SeqNum::new(4094)), 5);
    }

    #[test]
    fn mpdu_wire_len_matches_paper_arithmetic() {
        let mpdu = DataMpdu {
            src: StationId(0),
            dst: StationId(1),
            seq: SeqNum::new(0),
            retry: false,
            more_data: false,
            sync: false,
            payload: Blob(1500),
        };
        // 1500-byte IP datagram => 1538-byte MPDU.
        assert_eq!(mpdu.wire_len(), 1538);
        // 42 such MPDUs fit in a 64 KB A-MPDU, 43 do not.
        let lens42 = vec![1538u32; 42];
        let lens43 = vec![1538u32; 43];
        assert!(ampdu_wire_len(&lens42) <= 65_535);
        assert!(ampdu_wire_len(&lens43) > 65_535);
    }

    #[test]
    fn ampdu_padding_rounds_to_4() {
        // 13-byte MPDU pads to 16, plus 4-byte delimiter = 20.
        assert_eq!(ampdu_wire_len(&[13]), 20);
        assert_eq!(ampdu_wire_len(&[16]), 20);
        assert_eq!(ampdu_wire_len(&[]), 0);
    }

    #[test]
    fn control_frame_sizes() {
        let ack: Frame<Blob> = Frame::Ack {
            src: StationId(0),
            dst: StationId(1),
            hack: None,
        };
        assert_eq!(ack.wire_len(), 14);
        let ba: Frame<Blob> = Frame::BlockAck {
            src: StationId(0),
            dst: StationId(1),
            bitmap: AckBitmap::new(SeqNum::new(0)),
            hack: None,
        };
        assert_eq!(ba.wire_len(), 32);
        let bar: Frame<Blob> = Frame::BlockAckReq {
            src: StationId(0),
            dst: StationId(1),
            start: SeqNum::new(0),
        };
        assert_eq!(bar.wire_len(), 24);
    }

    #[test]
    fn hack_blob_adds_len_field_plus_bytes() {
        let ba: Frame<Blob> = Frame::BlockAck {
            src: StationId(0),
            dst: StationId(1),
            bitmap: AckBitmap::new(SeqNum::new(0)),
            hack: Some(HackBlob {
                bytes: vec![0u8; 10],
            }),
        };
        assert_eq!(ba.wire_len(), 32 + 2 + 10);
    }

    #[test]
    fn bitmap_set_contains_iter() {
        let mut bm = AckBitmap::new(SeqNum::new(4090));
        bm.set(SeqNum::new(4090));
        bm.set(SeqNum::new(4095));
        bm.set(SeqNum::new(3)); // wraps: distance 9
        bm.set(SeqNum::new(600)); // outside window: ignored
        assert!(bm.contains(SeqNum::new(4090)));
        assert!(bm.contains(SeqNum::new(4095)));
        assert!(bm.contains(SeqNum::new(3)));
        assert!(!bm.contains(SeqNum::new(4091)));
        assert!(!bm.contains(SeqNum::new(600)));
        let got: Vec<u16> = bm.iter().map(SeqNum::value).collect();
        assert_eq!(got, vec![4090, 4095, 3]);
        assert_eq!(bm.count(), 3);
    }

    #[test]
    fn frame_src_dst_accessors() {
        let f: Frame<Blob> = Frame::BlockAckReq {
            src: StationId(7),
            dst: StationId(9),
            start: SeqNum::new(4),
        };
        assert_eq!(f.src(), StationId(7));
        assert_eq!(f.dst(), StationId(9));
    }
}
