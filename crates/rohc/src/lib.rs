//! # hack-rohc — ROHC-style TCP ACK compression for HACK
//!
//! The paper compresses TCP ACKs with RObust Header Compression
//! (RFC 6846) before enclosing them in link-layer ACKs. This crate is a
//! from-scratch implementation of the HACK-specialized profile the paper
//! describes in §3.3.2:
//!
//! * **No IR packets** — contexts are created and refreshed from
//!   natively transmitted TCP ACKs ([`Compressor::observe_native`] /
//!   [`Decompressor::observe_native`]).
//! * **Independent CID computation** — CID = lowest byte of the MD5 hash
//!   of the flow 5-tuple ([`md5::cid_for_tuple`]); MD5 itself is
//!   implemented in-repo per RFC 1321.
//! * **Extended master sequence number** — every compressed ACK carries
//!   an 8-bit MSN so the AP can discard duplicates arriving via the
//!   client's blob-retention mechanism (§3.4, Figure 6).
//! * **ROHC CRC validation** — CRC-3 (RFC 3095 polynomials, [`crc`])
//!   over the reconstructed original header detects context
//!   desynchronization, which heals on the next native ACK.
//! * **Window-based LSB (W-LSB) field encoding** — every dynamic field
//!   carries just enough low-order bits to decode against *any*
//!   reference the decompressor might hold, from the oldest
//!   unconfirmed native ACK to the newest emission. This is what makes
//!   compressed ACKs robust to blobs overtaking queued native ACKs,
//!   retained-blob duplication, and arbitrary losses (§3.4).
//!
//! Typical steady-state output is ~8 bytes per 52-byte ACK (timestamps
//! included) — the same order as the paper's Table 2, which reports
//! ~4.4 bytes with the full ROHC-TCP profile's packed bit formats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cidmap;
pub mod compress;
pub mod context;
pub mod crc;
pub mod decompress;
mod fold;
pub mod md5;
pub mod varint;

pub use cidmap::CidMap;
pub use compress::{build_blob, CompressStats, Compressor, RohcSegment};
pub use context::{CompContext, DecompContext, FieldRefs};
pub use decompress::{BlobDecoder, BlobItem, DecompressError, DecompressStats, Decompressor};
pub use md5::{cid_for_tuple, md5};
