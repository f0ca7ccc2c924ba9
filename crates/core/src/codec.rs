//! Versioned binary serialization of [`RunResult`] — the campaign
//! cache's on-disk format — its JSON view, and the field walk of
//! [`ScenarioConfig`] that keys the cache.
//!
//! The campaign engine caches each job's full [`RunResult`] keyed by
//! the content hash of its resolved configuration
//! ([`ScenarioConfig::stable_hash`]). For a cache hit to be
//! indistinguishable from a fresh run, the codec must round-trip every
//! field *exactly*: floats are stored as IEEE-754 bit patterns, never
//! re-parsed from text, so decoded results produce byte-identical
//! aggregates and JSON.
//!
//! Every encoded result starts with a magic tag and
//! [`RESULT_SCHEMA_VERSION`]. Decoding a result with a different
//! version fails with [`CodecError::SchemaMismatch`], which the cache
//! treats as a miss — stale results from before a result-shape change
//! are silently recomputed instead of silently mixed in.
//!
//! # One walk per type
//!
//! Every struct reachable from [`RunResult`] or [`ScenarioConfig`]
//! lists its fields once, in wire order, in a `walk!` table below, and
//! every enum lists its variants, each with an explicit wire code and
//! its payload in wire order, in a `walk_enum!` table. That one list
//! generates both directions: [`Walk::walk`] feeds the fields of a `&T`
//! to a [`Sink`] (the binary encoder behind [`encode_run_result`], the
//! JSON writer behind [`to_json`], and the
//! [`StableHasher`](crate::StableHasher) behind the cache key), and the
//! validating decoder behind [`decode_run_result`] builds a `T` back in
//! the same order. The walk destructures a struct without `..` and
//! matches an enum without a wildcard arm, and the decoder builds a
//! struct with a literal, so a field or variant missing from a list is
//! a compile error. **Changing a list — a field, a variant's code, an
//! order or a width — is a format change.** Under [`RunResult`], bump
//! [`RESULT_SCHEMA_VERSION`] and re-pin
//! `encoded_run_result_bytes_are_pinned`; under [`ScenarioConfig`],
//! bump [`CONFIG_ENCODING_VERSION`](crate::CONFIG_ENCODING_VERSION) and
//! re-pin `legacy_hashes_pinned_to_pre_model_build` and
//! `every_variant_hashes_pinned`; each with a one-line reason.

use std::fmt::Write as _;

use hack_mac::{AssocConfig, MacStats};
use hack_phy::{CorruptModel, GeParams, InterferenceConfig, RoamTrigger, Waypoint};
use hack_rohc::{CompressStats, DecompressStats};
use hack_sim::{Counter, QuantileSketch, SimDuration, SimTime, TimeAccumulator};
use hack_tcp::{CcKind, TcpStats};

use crate::driver::{CompressSideStats, HackMode};
use crate::scenario::{
    BssSpec, ChannelChange, ChannelEvent, ClassReport, ClientPath, LossConfig, RoamConfig,
    RoamEvent, RunResult, ScenarioConfig, Standard,
};
use crate::supervisor::{FlowHealth, SupervisorConfig, SupervisorReport, SupervisorStats};
use crate::traffic::{
    ArrivalDist, CbrConfig, OnOffConfig, ShortFlowConfig, SizeDist, TrafficClass, TrafficModel,
};

/// Version of the serialized [`RunResult`] layout. Bump on any change
/// to the result shape; the cache rejects (and recomputes) entries
/// written under a different version.
///
/// v4: `completion` became per-flow `flow_completion`, plus the
/// AP-side driver stats (`driver_ap`) and per-class traffic reports
/// (`classes`, with sparse quantile sketches).
///
/// v5: same layout, but `events_dispatched` no longer counts stale
/// timer events or one event per same-instant host delivery.
///
/// v6: the driver stats gain `superseded`, and held ACKs older than a
/// delivered native no longer ride, which changes HACK results.
///
/// v7: same layout, but each end of a link decodes with its own
/// contexts, so uploads, bidirectional flows and CID-colliding flows
/// decode, and `decompressor` sums every end instead of every AP.
pub const RESULT_SCHEMA_VERSION: u32 = 7;

/// File magic for encoded results.
const MAGIC: &[u8; 4] = b"HKRR";

/// Byte offset of the schema version field inside an encoded result —
/// exposed so tests (and only tests) can forge a bumped version.
pub const SCHEMA_VERSION_OFFSET: usize = MAGIC.len();

/// Why a byte string failed to decode as a [`RunResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The leading magic bytes are wrong — not a result file at all.
    BadMagic,
    /// The result was written under a different schema version.
    SchemaMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The byte string ended mid-field.
    Truncated,
    /// A field held a value outside its domain (e.g. an unknown
    /// [`FlowHealth`] code).
    BadValue,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a serialized RunResult (bad magic)"),
            CodecError::SchemaMismatch { found, expected } => write!(
                f,
                "RunResult schema version {found} != supported {expected}"
            ),
            CodecError::Truncated => write!(f, "serialized RunResult is truncated"),
            CodecError::BadValue => write!(f, "serialized RunResult holds an invalid value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// What a [`Walk`] feeds: a value's leaves in wire order, with the
/// record and sequence structure a self-describing format needs to name
/// them. A binary sink ignores the structure it does not store, and the
/// defaults store floats, bools, enum codes and `Option` tags the binary
/// way.
pub trait Sink {
    /// An unsigned integer (`usize` counts and durations arrive widened).
    fn u64(&mut self, v: u64);
    /// A 32-bit unsigned integer (a sketch bucket index, a window).
    fn u32(&mut self, v: u32);
    /// One byte (a channel number).
    fn u8(&mut self, v: u8);
    /// A float, as its IEEE-754 bit pattern.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// A bool, as one byte 0 or 1.
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// An enum variant: its one-byte code and its report name.
    fn variant(&mut self, code: u8, _name: &'static str) {
        self.u8(code);
    }
    /// An `Option`'s tag; the value follows when `some`.
    fn option(&mut self, some: bool) {
        self.u8(u8::from(some));
    }
    /// A sequence of `len` values follows, then [`Sink::end_seq`].
    fn seq(&mut self, len: usize);
    /// Closes the innermost sequence.
    fn end_seq(&mut self) {}
    /// Opens a record of [`Sink::field`]-named values.
    fn record(&mut self) {}
    /// The next value is the open record's field `name`.
    fn field(&mut self, _name: &'static str) {}
    /// Closes the innermost record.
    fn end_record(&mut self) {}
}

/// A type the codec walks: [`RunResult`], [`ScenarioConfig`] and every
/// type inside them.
pub trait Walk {
    /// Feed this value to `s`, field by field in wire order.
    fn walk<S: Sink>(&self, s: &mut S);
}

/// The validating inverse of [`Walk`] over the binary encoding.
trait Decode: Sized {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Implements [`Walk`] and [`Decode`] for each struct from one list of
/// its fields in wire order.
macro_rules! walk {
    ($($ty:ident { $($f:ident),* $(,)? })*) => {$(
        impl Walk for $ty {
            fn walk<S: Sink>(&self, s: &mut S) {
                let $ty { $($f),* } = self;
                s.record();
                $(s.field(stringify!($f)); $f.walk(s);)*
                s.end_record();
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok($ty { $($f: Decode::decode(r)?),* })
            }
        }
    )*};
}

walk! {
    RunResult {
        flow_goodput_mbps, aggregate_goodput_mbps, flow_goodput_full_mbps, flow_completion,
        mac, driver, driver_ap, compressor, decompressor,
        ppdus, events_dispatched, collisions, ap_queue_drops, sender_tcp, receiver_tcp,
        blob_within_aifs, supervisor, flow_goodput_final_mbps, roams, classes,
    }
    MacStats {
        mpdus_first_try, mpdus_retried, mpdus_dropped, tx_attempts, responses_sent,
        responses_with_blob, ack_timeouts, bars_sent, bars_exhausted, rx_garbage, rx_fcs_bad,
        acquire_wait_data, acquire_wait_ack, airtime_data, airtime_ack, airtime_response,
        airtime_blob, blob_within_aifs, blob_beyond_aifs, ll_ack_overhead,
    }
    CompressSideStats {
        native_acks, native_ack_bytes, hacked_acks, hacked_ack_bytes, reenqueued,
        dropped_on_flush, timer_flushes, spilled, noop_flushes, forced_native, superseded,
    }
    CompressStats { compressed, compressed_bytes, original_bytes, declined }
    DecompressStats { decompressed, duplicates, crc_failures, no_context, malformed }
    TcpStats {
        data_segments_sent, retransmits, fast_retransmits, timeouts, acks_sent,
        dupacks_received, bytes_delivered, bytes_acked, rtt_samples, rtt_sum_us,
    }
    SupervisorReport { final_state, stats }
    SupervisorStats {
        degraded, fallbacks, probations, recoveries, refreshes, handoffs, est_divergence,
    }
    ClassReport { class, flows, transfers, goodput_mbps, fct, latency, jitter }
    SparseSketch { count, sum, min, max, buckets }
}

// The cache key: the configuration and every struct inside it.
walk! {
    ScenarioConfig {
        standard, n_clients, hack_mode, traffic, traffic_mix, delayed_ack, server_at_ap,
        ap_queue_cap, loss, corrupt, dynamics, stack_delay, dma_delay, duration, transfer_bytes,
        stagger, warmup, seed, sora_quirks, rcv_window, disable_sync, txop_limit, retry_limit,
        supervisor, client_hack_capable, held_cap, cc, bss, interference, roam,
    }
    ShortFlowConfig { sizes, think, reuse }
    CbrConfig { rate_kbps, payload_bytes }
    OnOffConfig { on, off, rate_kbps, payload_bytes }
    GeParams { p_enter_bad, p_exit_bad, per_good, per_bad }
    CorruptModel { data_frac, control_per, fcs_miss }
    ChannelEvent { at, change }
    SupervisorConfig {
        degrade_score, fallback_score, probation_initial, probation_max, probation_success,
        decay_good,
    }
    BssSpec { x, y, channel, n_clients }
    InterferenceConfig { co_channel_range_m, adjacent_range_m }
    RoamConfig {
        schedule, trigger, paths, mobility_tick, ap_hack_capable, assoc, assoc_fail_prob,
        rto_clamp_shift, park_cap,
    }
    RoamEvent { flow, at, target_bss }
    RoamTrigger { threshold_db, hysteresis_db, min_dwell }
    ClientPath { client, waypoints }
    Waypoint { at, x, y }
    AssocConfig { scan_delay, retry_backoff, max_retries }
}

/// Implements [`Walk`] and [`Decode`] for each enum from one list of its
/// variants: the wire code, the variant and its payload's bindings in
/// wire order. The walk's `match` has no wildcard arm, so a variant
/// missing from the list is a compile error. A unit variant walks as
/// [`Sink::variant`]; one with a payload walks as a record whose
/// `variant` field names it.
macro_rules! walk_enum {
    ($($ty:ident {
        $($code:literal => $v:ident $(($($t:ident),*))? $({$($f:ident),*})?),* $(,)?
    })*) => {$(
        impl Walk for $ty {
            fn walk<S: Sink>(&self, s: &mut S) {
                match self {
                    $($ty::$v $(($($t),*))? $({$($f),*})? => {
                        walk_enum!(@walk s $code $v $($($t)*)? $($($f)*)?)
                    })*
                }
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(match r.u8()? {
                    $($code => {
                        $($(let $t = Decode::decode(r)?;)*)?
                        $($(let $f = Decode::decode(r)?;)*)?
                        $ty::$v $(($($t),*))? $({$($f),*})?
                    })*
                    _ => return Err(CodecError::BadValue),
                })
            }
        }
    )*};
    (@walk $s:ident $code:literal $v:ident) => { $s.variant($code, stringify!($v)) };
    (@walk $s:ident $code:literal $v:ident $($f:ident)+) => {{
        $s.record();
        $s.field("variant");
        $s.variant($code, stringify!($v));
        $($s.field(stringify!($f)); $f.walk($s);)+
        $s.end_record();
    }};
}

walk_enum! {
    Standard { 0 => Dot11a { rate_mbps }, 1 => Dot11n { rate_mbps } }
    HackMode { 0 => Disabled, 1 => Opportunistic, 2 => MoreData, 3 => ExplicitTimer(timer) }
    TrafficModel {
        0 => BulkDownload, 1 => BulkUpload, 2 => UdpDownload, 3 => ShortFlows(config),
        4 => Bidirectional, 5 => Cbr(config), 6 => OnOff(config),
    }
    SizeDist {
        0 => Fixed(bytes),
        1 => BoundedPareto { alpha, min, max },
        2 => LogNormal { mu, sigma, max },
    }
    ArrivalDist { 0 => Fixed(gap), 1 => Exponential { mean }, 2 => Uniform { lo, hi } }
    LossConfig { 0 => Ideal, 1 => PerClient(per), 2 => SnrDistance(distance_m), 3 => Burst(params) }
    ChannelChange {
        0 => SnrOffsetDb(db),
        1 => ClientLoss { client, per },
        2 => MoveClient { client, x, y },
    }
    CcKind { 0 => Reno, 1 => Cubic, 2 => Highspeed, 3 => Bbr }
}

/// The sparse form of a [`QuantileSketch`]: what the codec stores.
struct SparseSketch {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<(u16, u64)>,
}

/// Implements [`Walk`] and [`Decode`] for a leaf type: how `v` feeds
/// `s`, and how `r` rebuilds (or rejects) it, side by side.
macro_rules! leaf {
    ($($ty:ty: |$v:ident, $s:ident| $walk:expr, |$r:ident| $decode:expr;)*) => {$(
        impl Walk for $ty {
            fn walk<S: Sink>(&self, $s: &mut S) {
                let $v = self;
                $walk;
            }
        }
        impl Decode for $ty {
            fn decode($r: &mut Reader<'_>) -> Result<Self, CodecError> {
                $decode
            }
        }
    )*};
}

leaf! {
    u64: |v, s| s.u64(*v), |r| r.u64();
    u32: |v, s| s.u32(*v), |r| r.u32();
    u8: |v, s| s.u8(*v), |r| r.u8();
    bool: |v, s| s.bool(*v), |r| match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::BadValue),
    };
    usize: |v, s| s.u64(*v as u64), |r| usize::try_from(r.u64()?).or(Err(CodecError::BadValue));
    f64: |v, s| s.f64(*v), |r| r.u64().map(f64::from_bits);
    Counter: |v, s| s.u64(v.get()), |r| r.u64().map(Counter::from_value);
    SimTime: |v, s| s.u64(v.as_nanos()), |r| r.u64().map(SimTime::from_nanos);
    SimDuration: |v, s| s.u64(v.as_nanos()), |r| r.u64().map(SimDuration::from_nanos);
    FlowHealth: |v, s| s.variant(v.code(), v.name()),
        |r| FlowHealth::from_code(r.u8()?).ok_or(CodecError::BadValue);
    TrafficClass: |v, s| s.variant(v.code(), v.name()),
        |r| TrafficClass::from_code(r.u8()?).ok_or(CodecError::BadValue);
    TimeAccumulator: |v, s| {
        s.record();
        s.field("total_ns");
        s.u64(v.total().as_nanos());
        s.field("events");
        s.u64(v.events());
        s.end_record();
    }, |r| {
        let total = SimDuration::from_nanos(r.u64()?);
        Ok(TimeAccumulator::from_parts(total, r.u64()?))
    };
    // One sparse sketch bucket: a `u32` index and its count.
    (u16, u64): |v, s| {
        s.record();
        s.field("bucket");
        s.u32(v.0.into());
        s.field("count");
        s.u64(v.1);
        s.end_record();
    }, |r| {
        let bucket = u16::try_from(r.u32()?).or(Err(CodecError::BadValue))?;
        Ok((bucket, r.u64()?))
    };
    QuantileSketch: |v, s| {
        let (count, sum, min, max, buckets) = v.to_sparse();
        SparseSketch { count, sum, min, max, buckets }.walk(s);
    }, |r| {
        let SparseSketch { count, sum, min, max, buckets } = SparseSketch::decode(r)?;
        QuantileSketch::from_sparse(count, sum, min, max, &buckets).ok_or(CodecError::BadValue)
    };
}

impl<T: Walk> Walk for Option<T> {
    fn walk<S: Sink>(&self, s: &mut S) {
        s.option(self.is_some());
        if let Some(v) = self {
            v.walk(s);
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            _ => Err(CodecError::BadValue),
        }
    }
}

impl<T: Walk> Walk for Vec<T> {
    fn walk<S: Sink>(&self, s: &mut S) {
        s.seq(self.len());
        for v in self {
            v.walk(s);
        }
        s.end_seq();
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        (0..n).map(|_| T::decode(r)).collect()
    }
}

// ---------------------------------------------------------------------
// Binary sink and reader
// ---------------------------------------------------------------------

/// The binary sink: little-endian integers, floats as IEEE-754 bits,
/// `u32` sequence lengths, one-byte enum codes and `Option` tags.
struct Encoder(Vec<u8>);

impl Sink for Encoder {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn seq(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("vector fits u32"));
    }
}

/// Serialize a [`RunResult`] under [`RESULT_SCHEMA_VERSION`].
pub fn encode_run_result(r: &RunResult) -> Vec<u8> {
    let mut e = Encoder(Vec::with_capacity(1024));
    e.0.extend_from_slice(MAGIC);
    e.u32(RESULT_SCHEMA_VERSION);
    r.walk(&mut e);
    e.0
}

/// The bytes not yet decoded.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        // An explicit check: `split_at_checked` made decoding 2x slower (rustc 1.95, x86-64).
        if self.0.len() < N {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        Ok(head.try_into().expect("N bytes"))
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        self.take().map(u8::from_le_bytes)
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        self.take().map(u32::from_le_bytes)
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        self.take().map(u64::from_le_bytes)
    }
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        // A length that could not possibly fit the remaining bytes is
        // corruption, not a huge allocation request.
        if n > self.0.len() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
}

/// Deserialize a [`RunResult`] previously produced by
/// [`encode_run_result`]. Fails with [`CodecError::SchemaMismatch`]
/// when the stored schema version differs from this build's.
pub fn decode_run_result(bytes: &[u8]) -> Result<RunResult, CodecError> {
    let mut r = Reader(bytes);
    if &r.take()? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u32()?;
    if version != RESULT_SCHEMA_VERSION {
        return Err(CodecError::SchemaMismatch {
            found: version,
            expected: RESULT_SCHEMA_VERSION,
        });
    }
    let result = RunResult::decode(&mut r)?;
    if !r.0.is_empty() {
        // Trailing bytes mean the shapes disagree even though the
        // version matched — treat as corruption.
        return Err(CodecError::BadValue);
    }
    Ok(result)
}

// ---------------------------------------------------------------------
// JSON sink
// ---------------------------------------------------------------------

/// The JSON sink: records become objects keyed by field name, sequences
/// arrays, enum variants their names (a variant with a payload is a
/// record naming it under `variant`); `None` and non-finite floats are
/// `null`.
struct Json {
    out: String,
    /// The open container already holds a value, so the next one needs
    /// a comma.
    comma: bool,
}

impl Json {
    fn value(&mut self, v: impl std::fmt::Display) {
        if self.comma {
            self.out.push(',');
        }
        let _ = write!(self.out, "{v}");
        self.comma = true;
    }
    /// Write an opening bracket or a key: the value after it takes no
    /// comma.
    fn open(&mut self, v: impl std::fmt::Display) {
        self.value(v);
        self.comma = false;
    }
    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }
}

impl Sink for Json {
    fn u64(&mut self, v: u64) {
        self.value(v);
    }
    fn u32(&mut self, v: u32) {
        self.value(v);
    }
    fn u8(&mut self, v: u8) {
        self.value(v);
    }
    fn bool(&mut self, v: bool) {
        self.value(v);
    }
    fn f64(&mut self, v: f64) {
        if v.is_finite() {
            self.value(v);
        } else {
            self.value("null");
        }
    }
    fn variant(&mut self, _code: u8, name: &'static str) {
        self.value(format_args!("\"{name}\""));
    }
    fn option(&mut self, some: bool) {
        if !some {
            self.value("null");
        }
    }
    fn seq(&mut self, _len: usize) {
        self.open('[');
    }
    fn end_seq(&mut self) {
        self.close(']');
    }
    fn record(&mut self) {
        self.open('{');
    }
    fn field(&mut self, name: &'static str) {
        self.open(format_args!("\"{name}\":"));
    }
    fn end_record(&mut self) {
        self.close('}');
    }
}

/// `v` as JSON, every field it walks named as in its struct — the
/// experiments' `--json` output.
pub fn to_json<T: Walk>(v: &T) -> String {
    let mut j = Json {
        out: String::new(),
        comma: false,
    };
    v.walk(&mut j);
    j.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::HackMode;
    use crate::scenario::ScenarioBuilder;
    use crate::sim::World;
    use crate::stable::StableHasher;
    use hack_sim::SimDuration;

    /// Hands out distinct values, so every counter in a built result
    /// differs from every other.
    struct Distinct(u64);

    impl Distinct {
        fn next(&mut self) -> u64 {
            self.0 += 1;
            self.0 * 1_000_003 + 7
        }
        fn counter(&mut self) -> Counter {
            Counter::from_value(self.next())
        }
        fn accum(&mut self) -> TimeAccumulator {
            TimeAccumulator::from_parts(SimDuration::from_nanos(self.next()), self.next())
        }
        fn f64(&mut self) -> f64 {
            self.next() as f64 / 8.0
        }
        fn f64s(&mut self, n: usize) -> Vec<f64> {
            (0..n).map(|_| self.f64()).collect()
        }
        fn sketch(&mut self, samples: usize) -> QuantileSketch {
            let mut s = QuantileSketch::new();
            for _ in 0..samples {
                s.record(self.next());
            }
            s
        }
        fn mac(&mut self) -> MacStats {
            MacStats {
                mpdus_first_try: self.counter(),
                mpdus_retried: self.counter(),
                mpdus_dropped: self.counter(),
                tx_attempts: self.counter(),
                responses_sent: self.counter(),
                responses_with_blob: self.counter(),
                ack_timeouts: self.counter(),
                bars_sent: self.counter(),
                bars_exhausted: self.counter(),
                rx_garbage: self.counter(),
                rx_fcs_bad: self.counter(),
                acquire_wait_data: self.accum(),
                acquire_wait_ack: self.accum(),
                airtime_data: self.accum(),
                airtime_ack: self.accum(),
                airtime_response: self.accum(),
                airtime_blob: self.accum(),
                blob_within_aifs: self.counter(),
                blob_beyond_aifs: self.counter(),
                ll_ack_overhead: self.accum(),
            }
        }
        fn driver(&mut self) -> CompressSideStats {
            CompressSideStats {
                native_acks: self.next(),
                native_ack_bytes: self.next(),
                hacked_acks: self.next(),
                hacked_ack_bytes: self.next(),
                reenqueued: self.next(),
                dropped_on_flush: self.next(),
                timer_flushes: self.next(),
                spilled: self.next(),
                noop_flushes: self.next(),
                forced_native: self.next(),
                superseded: self.next(),
            }
        }
        fn tcp(&mut self) -> TcpStats {
            TcpStats {
                data_segments_sent: self.next(),
                retransmits: self.next(),
                fast_retransmits: self.next(),
                timeouts: self.next(),
                acks_sent: self.next(),
                dupacks_received: self.next(),
                bytes_delivered: self.next(),
                bytes_acked: self.next(),
                rtt_samples: self.next(),
                rtt_sum_us: self.next(),
            }
        }
        fn supervisor(&mut self, final_state: FlowHealth) -> SupervisorReport {
            SupervisorReport {
                final_state,
                stats: SupervisorStats {
                    degraded: self.next(),
                    fallbacks: self.next(),
                    probations: self.next(),
                    recoveries: self.next(),
                    refreshes: self.next(),
                    handoffs: self.next(),
                    est_divergence: self.next(),
                },
            }
        }
        fn class(&mut self, class: TrafficClass) -> ClassReport {
            ClassReport {
                class,
                flows: self.next() as usize,
                transfers: self.next(),
                goodput_mbps: self.f64(),
                fct: self.sketch(3),
                latency: self.sketch(4),
                jitter: self.sketch(5),
            }
        }
    }

    /// A result built field by field rather than simulated, so only a
    /// format change can move [`encoded_run_result_bytes_are_pinned`]:
    /// every vector is non-empty, both `Option` arms and two codes of
    /// each wire enum appear, every sketch holds distinct samples and
    /// every counter a distinct value.
    fn pinned_result() -> RunResult {
        let mut d = Distinct(0);
        RunResult {
            flow_goodput_mbps: d.f64s(2),
            aggregate_goodput_mbps: d.f64(),
            flow_goodput_full_mbps: d.f64s(2),
            flow_completion: vec![Some(SimTime::from_nanos(d.next())), None],
            mac: vec![d.mac(), d.mac()],
            driver: vec![d.driver(), d.driver()],
            driver_ap: vec![d.driver(), d.driver()],
            compressor: vec![CompressStats {
                compressed: d.next(),
                compressed_bytes: d.next(),
                original_bytes: d.next(),
                declined: d.next(),
            }],
            decompressor: DecompressStats {
                decompressed: d.next(),
                duplicates: d.next(),
                crc_failures: d.next(),
                no_context: d.next(),
                malformed: d.next(),
            },
            ppdus: d.next(),
            events_dispatched: d.next(),
            collisions: d.next(),
            ap_queue_drops: d.next(),
            sender_tcp: vec![d.tcp(), d.tcp()],
            receiver_tcp: vec![d.tcp(), d.tcp()],
            blob_within_aifs: d.f64(),
            supervisor: vec![
                d.supervisor(FlowHealth::Degraded),
                d.supervisor(FlowHealth::PeerIncapable),
            ],
            flow_goodput_final_mbps: d.f64s(2),
            roams: d.next(),
            classes: vec![d.class(TrafficClass::Udp), d.class(TrafficClass::OnOff)],
        }
    }

    /// The encoding of [`pinned_result`] is frozen: a change here is a
    /// format change, which must bump [`RESULT_SCHEMA_VERSION`] and
    /// re-pin with a one-line reason.
    #[test]
    fn encoded_run_result_bytes_are_pinned() {
        let bytes = encode_run_result(&pinned_result());
        let mut h = StableHasher::new();
        h.write(&bytes);
        // Re-pinned at v7: the version field moved; results cached at v6
        // decoded uploads at no end and summed only the APs' decoders.
        assert_eq!(
            (bytes.len(), h.finish_hex().as_str()),
            (1822, "6452e1c5cb03544d0dd591d89bbbeefe")
        );
    }

    fn small_result() -> RunResult {
        let cfg = ScenarioBuilder::dot11n_download(150, 1, HackMode::MoreData)
            .duration(SimDuration::from_millis(400))
            .build();
        World::builder(cfg).run()
    }

    #[test]
    fn round_trip_is_exact() {
        let r = small_result();
        let bytes = encode_run_result(&r);
        let d = decode_run_result(&bytes).expect("decodes");
        // Bit-exact float fields and equal counters: re-encoding the
        // decoded result must reproduce the byte string.
        assert_eq!(bytes, encode_run_result(&d));
        assert_eq!(
            r.aggregate_goodput_mbps.to_bits(),
            d.aggregate_goodput_mbps.to_bits()
        );
        assert_eq!(r.events_dispatched, d.events_dispatched);
        assert_eq!(r.mac.len(), d.mac.len());
        assert_eq!(
            r.mac[0].mpdus_first_try.get(),
            d.mac[0].mpdus_first_try.get()
        );
        assert_eq!(r.mac[0].airtime_data.total(), d.mac[0].airtime_data.total());
    }

    #[test]
    fn bumped_version_is_rejected() {
        let r = small_result();
        let mut bytes = encode_run_result(&r);
        let v = RESULT_SCHEMA_VERSION + 1;
        bytes[SCHEMA_VERSION_OFFSET..SCHEMA_VERSION_OFFSET + 4].copy_from_slice(&v.to_le_bytes());
        match decode_run_result(&bytes) {
            Err(CodecError::SchemaMismatch { found, expected }) => {
                assert_eq!(found, v);
                assert_eq!(expected, RESULT_SCHEMA_VERSION);
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_magic_detected() {
        let r = small_result();
        let bytes = encode_run_result(&r);
        assert!(matches!(
            decode_run_result(&bytes[..bytes.len() - 1]),
            Err(CodecError::BadValue | CodecError::Truncated)
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode_run_result(&bad), Err(CodecError::BadMagic)));
    }

    /// Encodes like [`Encoder`] and records the offset of every enum
    /// code, `Option` tag and bool it writes, with the first code above
    /// the known ones.
    struct TagSpy {
        enc: Encoder,
        /// The first unknown code of the enum a variant belongs to.
        unknown: fn(u8, &'static str) -> u8,
        tags: Vec<(usize, u8)>,
    }

    impl TagSpy {
        fn new(prefix: &[u8], unknown: fn(u8, &'static str) -> u8) -> Self {
            TagSpy {
                enc: Encoder(prefix.to_vec()),
                unknown,
                tags: Vec::new(),
            }
        }
    }

    impl Sink for TagSpy {
        fn u64(&mut self, v: u64) {
            self.enc.u64(v);
        }
        fn u32(&mut self, v: u32) {
            self.enc.u32(v);
        }
        fn u8(&mut self, v: u8) {
            self.enc.u8(v);
        }
        fn bool(&mut self, v: bool) {
            self.tags.push((self.enc.0.len(), 2));
            self.enc.bool(v);
        }
        fn variant(&mut self, code: u8, name: &'static str) {
            self.tags
                .push((self.enc.0.len(), (self.unknown)(code, name)));
            self.enc.variant(code, name);
        }
        fn option(&mut self, some: bool) {
            self.tags.push((self.enc.0.len(), 2));
            self.enc.option(some);
        }
        fn seq(&mut self, len: usize) {
            self.enc.seq(len);
        }
    }

    #[test]
    fn decoder_rejects_prefixes_unknown_codes_and_trailing_bytes() {
        let r = pinned_result();
        let bytes = encode_run_result(&r);
        for n in 0..bytes.len() {
            assert!(
                matches!(
                    decode_run_result(&bytes[..n]),
                    Err(CodecError::Truncated | CodecError::BadValue)
                ),
                "prefix of {n} bytes"
            );
        }

        let mut spy = TagSpy::new(&bytes[..SCHEMA_VERSION_OFFSET + 4], |code, name| {
            let health = FlowHealth::from_code(code).is_some_and(|h| h.name() == name);
            if health {
                5
            } else {
                6
            }
        });
        r.walk(&mut spy);
        assert_eq!(spy.enc.0, bytes);
        // Two completion tags, two supervisor states, two classes.
        assert_eq!(spy.tags.len(), 6);
        for &(at, unknown) in &spy.tags {
            for code in unknown..=u8::MAX {
                let mut bad = bytes.clone();
                bad[at] = code;
                assert_eq!(
                    decode_run_result(&bad).err(),
                    Some(CodecError::BadValue),
                    "code {code} at byte {at}"
                );
            }
        }

        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode_run_result(&long).err(), Some(CodecError::BadValue));
    }

    impl Distinct {
        fn compressor(&mut self) -> CompressStats {
            CompressStats {
                compressed: self.next(),
                compressed_bytes: self.next(),
                original_bytes: self.next(),
                declined: self.next(),
            }
        }
        fn decompressor(&mut self) -> DecompressStats {
            DecompressStats {
                decompressed: self.next(),
                duplicates: self.next(),
                crc_failures: self.next(),
                no_context: self.next(),
                malformed: self.next(),
            }
        }
        fn class_sampled(&mut self, code: u8, samples: (usize, usize, usize)) -> ClassReport {
            ClassReport {
                class: TrafficClass::from_code(code).expect("known class"),
                flows: self.next() as usize,
                transfers: self.next(),
                goodput_mbps: self.f64(),
                fct: self.sketch(samples.0),
                latency: self.sketch(samples.1),
                jitter: self.sketch(samples.2),
            }
        }
    }

    mod shapes {
        use super::*;
        use proptest::collection::vec;
        use proptest::option;
        use proptest::prelude::*;

        proptest! {
            /// Every vector length 0–4, every `FlowHealth` and
            /// `TrafficClass` code, both `Option` arms and empty to
            /// five-sample sketches survive a decode: arms no simulated
            /// world reaches.
            #[test]
            fn round_trip_holds_for_arbitrary_shapes(
                start in 0u64..1 << 20,
                lens in vec(0usize..5, 9),
                floats in vec(any::<f64>(), 2),
                completion in vec(option::of(any::<u64>()), 0..5),
                health in vec(0u8..5, 0..5),
                classes in vec((0u8..6, (0usize..6, 0usize..6, 0usize..6)), 0..5),
            ) {
                let mut d = Distinct(start);
                let r = RunResult {
                    flow_goodput_mbps: d.f64s(lens[0]),
                    aggregate_goodput_mbps: floats[0],
                    flow_goodput_full_mbps: d.f64s(lens[1]),
                    flow_completion: completion
                        .into_iter()
                        .map(|c| c.map(SimTime::from_nanos))
                        .collect(),
                    mac: (0..lens[2]).map(|_| d.mac()).collect(),
                    driver: (0..lens[3]).map(|_| d.driver()).collect(),
                    driver_ap: (0..lens[4]).map(|_| d.driver()).collect(),
                    compressor: (0..lens[5]).map(|_| d.compressor()).collect(),
                    decompressor: d.decompressor(),
                    ppdus: d.next(),
                    events_dispatched: d.next(),
                    collisions: d.next(),
                    ap_queue_drops: d.next(),
                    sender_tcp: (0..lens[6]).map(|_| d.tcp()).collect(),
                    receiver_tcp: (0..lens[7]).map(|_| d.tcp()).collect(),
                    blob_within_aifs: floats[1],
                    supervisor: health
                        .iter()
                        .map(|&c| d.supervisor(FlowHealth::from_code(c).expect("known state")))
                        .collect(),
                    flow_goodput_final_mbps: d.f64s(lens[8]),
                    roams: d.next(),
                    classes: classes
                        .iter()
                        .map(|&(code, samples)| d.class_sampled(code, samples))
                        .collect(),
                };
                let bytes = encode_run_result(&r);
                let decoded = decode_run_result(&bytes).map_err(|e| e.to_string())?;
                prop_assert_eq!(encode_run_result(&decoded), bytes);
            }
        }
    }

    /// A [`ScenarioConfig`] through the binary [`Encoder`]: the bytes
    /// the cache key hashes, but with `u32` sequence lengths.
    fn encode_config(cfg: &ScenarioConfig) -> Vec<u8> {
        let mut e = Encoder(Vec::new());
        cfg.walk(&mut e);
        e.0
    }

    /// The decoder `walk!` generates for [`ScenarioConfig`], trailing
    /// bytes rejected as [`decode_run_result`] rejects them.
    fn decode_config(bytes: &[u8]) -> Result<ScenarioConfig, CodecError> {
        let mut r = Reader(bytes);
        let cfg = ScenarioConfig::decode(&mut r)?;
        if r.0.is_empty() {
            Ok(cfg)
        } else {
            Err(CodecError::BadValue)
        }
    }

    /// Each config enum's decoder accepts exactly the codes below
    /// `first_unknown` (with an all-zero payload after the code).
    fn accepts_codes_below<T: Decode>(first_unknown: u8) {
        for code in 0..=u8::MAX {
            let mut bytes = [0u8; 64];
            bytes[0] = code;
            let decoded = T::decode(&mut Reader(&bytes));
            if code < first_unknown {
                assert!(decoded.is_ok(), "code {code} is known");
            } else {
                assert_eq!(decoded.err(), Some(CodecError::BadValue), "code {code}");
            }
        }
    }

    #[test]
    fn config_enum_codes_are_dense() {
        accepts_codes_below::<Standard>(2);
        accepts_codes_below::<HackMode>(4);
        accepts_codes_below::<TrafficModel>(7);
        accepts_codes_below::<SizeDist>(3);
        accepts_codes_below::<ArrivalDist>(3);
        accepts_codes_below::<LossConfig>(4);
        accepts_codes_below::<ChannelChange>(3);
        accepts_codes_below::<CcKind>(4);
        accepts_codes_below::<bool>(2);
    }

    mod configs {
        use super::*;
        use proptest::prelude::*;
        use proptest::runner::TestRng;

        /// Draws a [`ScenarioConfig`] from the whole of its walk: every
        /// enum variant, both `Option` arms, vectors of 0–3 elements and
        /// any bit pattern in a float.
        struct AnyConfig;

        impl Strategy for AnyConfig {
            type Value = ScenarioConfig;
            fn generate(&self, rng: &mut TestRng) -> ScenarioConfig {
                Draw(rng).config()
            }
        }

        struct Draw<'a>(&'a mut TestRng);

        impl Draw<'_> {
            fn below(&mut self, n: u64) -> u64 {
                self.0.below(n)
            }
            fn u64(&mut self) -> u64 {
                self.0.next_u64()
            }
            fn u32(&mut self) -> u32 {
                self.u64() as u32
            }
            fn usize(&mut self) -> usize {
                self.u64() as usize
            }
            fn f64(&mut self) -> f64 {
                f64::from_bits(self.u64())
            }
            fn bool(&mut self) -> bool {
                self.below(2) == 1
            }
            fn dur(&mut self) -> SimDuration {
                SimDuration::from_nanos(self.u64())
            }
            fn opt<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
                if self.bool() {
                    Some(f(self))
                } else {
                    None
                }
            }
            fn vec<T>(&mut self, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
                let n = self.below(4);
                (0..n).map(|_| f(self)).collect()
            }
            fn arrival(&mut self) -> ArrivalDist {
                match self.below(3) {
                    0 => ArrivalDist::Fixed(self.dur()),
                    1 => ArrivalDist::Exponential { mean: self.dur() },
                    _ => ArrivalDist::Uniform {
                        lo: self.dur(),
                        hi: self.dur(),
                    },
                }
            }
            fn sizes(&mut self) -> SizeDist {
                match self.below(3) {
                    0 => SizeDist::Fixed(self.u64()),
                    1 => SizeDist::BoundedPareto {
                        alpha: self.f64(),
                        min: self.u64(),
                        max: self.u64(),
                    },
                    _ => SizeDist::LogNormal {
                        mu: self.f64(),
                        sigma: self.f64(),
                        max: self.u64(),
                    },
                }
            }
            fn model(&mut self) -> TrafficModel {
                match self.below(7) {
                    0 => TrafficModel::BulkDownload,
                    1 => TrafficModel::BulkUpload,
                    2 => TrafficModel::UdpDownload,
                    3 => TrafficModel::ShortFlows(ShortFlowConfig {
                        sizes: self.sizes(),
                        think: self.arrival(),
                        reuse: self.bool(),
                    }),
                    4 => TrafficModel::Bidirectional,
                    5 => TrafficModel::Cbr(CbrConfig {
                        rate_kbps: self.u64(),
                        payload_bytes: self.u32(),
                    }),
                    _ => TrafficModel::OnOff(OnOffConfig {
                        on: self.arrival(),
                        off: self.arrival(),
                        rate_kbps: self.u64(),
                        payload_bytes: self.u32(),
                    }),
                }
            }
            fn loss(&mut self) -> LossConfig {
                match self.below(4) {
                    0 => LossConfig::Ideal,
                    1 => LossConfig::PerClient(self.vec(Self::f64)),
                    2 => LossConfig::SnrDistance(self.f64()),
                    _ => LossConfig::Burst(GeParams {
                        p_enter_bad: self.f64(),
                        p_exit_bad: self.f64(),
                        per_good: self.f64(),
                        per_bad: self.f64(),
                    }),
                }
            }
            fn channel_event(&mut self) -> ChannelEvent {
                ChannelEvent {
                    at: self.dur(),
                    change: match self.below(3) {
                        0 => ChannelChange::SnrOffsetDb(self.f64()),
                        1 => ChannelChange::ClientLoss {
                            client: self.usize(),
                            per: self.f64(),
                        },
                        _ => ChannelChange::MoveClient {
                            client: self.usize(),
                            x: self.f64(),
                            y: self.f64(),
                        },
                    },
                }
            }
            fn waypoint(&mut self) -> Waypoint {
                Waypoint {
                    at: self.dur(),
                    x: self.f64(),
                    y: self.f64(),
                }
            }
            fn roam(&mut self) -> RoamConfig {
                RoamConfig {
                    schedule: self.vec(|d| RoamEvent {
                        flow: d.usize(),
                        at: d.dur(),
                        target_bss: d.usize(),
                    }),
                    trigger: self.opt(|d| RoamTrigger {
                        threshold_db: d.f64(),
                        hysteresis_db: d.f64(),
                        min_dwell: d.dur(),
                    }),
                    paths: self.vec(|d| ClientPath {
                        client: d.usize(),
                        waypoints: d.vec(Self::waypoint),
                    }),
                    mobility_tick: self.dur(),
                    ap_hack_capable: self.vec(Self::bool),
                    assoc: AssocConfig {
                        scan_delay: self.dur(),
                        retry_backoff: self.dur(),
                        max_retries: self.u32(),
                    },
                    assoc_fail_prob: self.f64(),
                    rto_clamp_shift: self.u32(),
                    park_cap: self.usize(),
                }
            }
            fn config(&mut self) -> ScenarioConfig {
                ScenarioConfig {
                    standard: if self.bool() {
                        Standard::Dot11a {
                            rate_mbps: self.u64(),
                        }
                    } else {
                        Standard::Dot11n {
                            rate_mbps: self.u64(),
                        }
                    },
                    n_clients: self.usize(),
                    hack_mode: match self.below(4) {
                        0 => HackMode::Disabled,
                        1 => HackMode::Opportunistic,
                        2 => HackMode::MoreData,
                        _ => HackMode::ExplicitTimer(self.dur()),
                    },
                    traffic: self.model(),
                    traffic_mix: self.vec(Self::model),
                    delayed_ack: self.bool(),
                    server_at_ap: self.bool(),
                    ap_queue_cap: self.usize(),
                    loss: self.loss(),
                    corrupt: self.opt(|d| CorruptModel {
                        data_frac: d.f64(),
                        control_per: d.f64(),
                        fcs_miss: d.f64(),
                    }),
                    dynamics: self.vec(Self::channel_event),
                    stack_delay: self.dur(),
                    dma_delay: self.dur(),
                    duration: self.dur(),
                    transfer_bytes: self.opt(Self::u64),
                    stagger: self.dur(),
                    warmup: self.dur(),
                    seed: self.u64(),
                    sora_quirks: self.bool(),
                    rcv_window: self.u32(),
                    disable_sync: self.bool(),
                    txop_limit: self.opt(Self::dur),
                    retry_limit: self.opt(Self::u32),
                    supervisor: self.opt(|d| SupervisorConfig {
                        degrade_score: d.u32(),
                        fallback_score: d.u32(),
                        probation_initial: d.dur(),
                        probation_max: d.dur(),
                        probation_success: d.u32(),
                        decay_good: d.u32(),
                    }),
                    client_hack_capable: self.vec(Self::bool),
                    held_cap: self.usize(),
                    cc: CcKind::ALL[self.below(4) as usize],
                    bss: self.vec(|d| BssSpec {
                        x: d.f64(),
                        y: d.f64(),
                        channel: d.u64() as u8,
                        n_clients: d.usize(),
                    }),
                    interference: InterferenceConfig {
                        co_channel_range_m: self.f64(),
                        adjacent_range_m: self.f64(),
                    },
                    roam: self.roam(),
                }
            }
        }

        proptest! {
            /// The config encoding is injective: an arbitrary config
            /// decodes back to one that re-encodes to the same bytes and
            /// hashes to the same key, and the decoder rejects every
            /// strict prefix, an unknown enum code, an `Option` tag or
            /// bool byte of 2, and a trailing byte.
            #[test]
            fn config_round_trip_is_injective(cfg in AnyConfig) {
                let bytes = encode_config(&cfg);
                let decoded = decode_config(&bytes).map_err(|e| e.to_string())?;
                prop_assert_eq!(encode_config(&decoded), bytes.clone());
                prop_assert_eq!(decoded.stable_hash(), cfg.stable_hash());

                for n in 0..bytes.len() {
                    prop_assert!(
                        matches!(
                            decode_config(&bytes[..n]),
                            Err(CodecError::Truncated | CodecError::BadValue)
                        ),
                        "prefix of {n} bytes"
                    );
                }
                let mut spy = TagSpy::new(&[], |_, _| u8::MAX);
                cfg.walk(&mut spy);
                prop_assert_eq!(&spy.enc.0, &bytes);
                for &(at, unknown) in &spy.tags {
                    let mut bad = bytes.clone();
                    bad[at] = unknown;
                    prop_assert_eq!(
                        decode_config(&bad).err(),
                        Some(CodecError::BadValue),
                        "code {} at byte {}", unknown, at
                    );
                }
                let mut long = bytes;
                long.push(0);
                prop_assert_eq!(decode_config(&long).err(), Some(CodecError::BadValue));
            }
        }
    }

    #[test]
    fn json_names_every_field() {
        let rep = SupervisorReport {
            final_state: FlowHealth::Probation,
            stats: SupervisorStats {
                degraded: 1,
                est_divergence: 7,
                ..SupervisorStats::default()
            },
        };
        assert_eq!(
            to_json(&rep),
            "{\"final_state\":\"probation\",\"stats\":{\"degraded\":1,\"fallbacks\":0,\
             \"probations\":0,\"recoveries\":0,\"refreshes\":0,\"handoffs\":0,\
             \"est_divergence\":7}}"
        );
        let completions = vec![None, Some(SimTime::from_nanos(5))];
        assert_eq!(to_json(&completions), "[null,5]");
        assert_eq!(to_json(&vec![1.5, f64::NAN]), "[1.5,null]");
        assert_eq!(to_json(&vec![vec![], vec![2u64]]), "[[],[2]]");
        let json = to_json(&pinned_result());
        assert!(json.starts_with("{\"flow_goodput_mbps\":["));
        assert!(json.contains("\"classes\":[{\"class\":\"udp\",\"flows\":"));
        assert!(json.contains("\"buckets\":[{\"bucket\":"));

        let cfg = ScenarioBuilder::dot11n_download(
            150,
            1,
            HackMode::ExplicitTimer(SimDuration::from_millis(2)),
        )
        .loss(LossConfig::Burst(GeParams {
            p_enter_bad: 0.5,
            p_exit_bad: 0.25,
            per_good: 0.0,
            per_bad: 1.0,
        }))
        .build();
        assert_eq!(
            to_json(&cfg),
            "{\"standard\":{\"variant\":\"Dot11n\",\"rate_mbps\":150},\"n_clients\":1,\
             \"hack_mode\":{\"variant\":\"ExplicitTimer\",\"timer\":2000000},\
             \"traffic\":\"BulkDownload\",\"traffic_mix\":[],\"delayed_ack\":true,\
             \"server_at_ap\":false,\"ap_queue_cap\":126,\"loss\":{\"variant\":\"Burst\",\
             \"params\":{\"p_enter_bad\":0.5,\"p_exit_bad\":0.25,\"per_good\":0,\"per_bad\":1}},\
             \"corrupt\":null,\"dynamics\":[],\"stack_delay\":30000,\"dma_delay\":15000,\
             \"duration\":10000000000,\"transfer_bytes\":null,\"stagger\":500000000,\
             \"warmup\":1000000000,\"seed\":1,\"sora_quirks\":false,\"rcv_window\":1048576,\
             \"disable_sync\":false,\"txop_limit\":null,\"retry_limit\":null,\"supervisor\":null,\
             \"client_hack_capable\":[],\"held_cap\":64,\"cc\":\"Reno\",\"bss\":[],\
             \"interference\":{\"co_channel_range_m\":30,\"adjacent_range_m\":12},\
             \"roam\":{\"schedule\":[],\"trigger\":null,\"paths\":[],\"mobility_tick\":100000000,\
             \"ap_hack_capable\":[],\"assoc\":{\"scan_delay\":20000000,\"retry_backoff\":10000000,\
             \"max_retries\":3},\"assoc_fail_prob\":0,\"rto_clamp_shift\":1,\"park_cap\":126}}"
        );
    }
}
