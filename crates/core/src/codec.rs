//! Versioned binary serialization of [`RunResult`] — the campaign
//! cache's on-disk format.
//!
//! The campaign engine caches each job's full [`RunResult`] keyed by
//! the content hash of its resolved configuration
//! ([`ScenarioConfig::stable_hash`](crate::ScenarioConfig::stable_hash)).
//! For a cache hit to be indistinguishable from a fresh run, the codec
//! must round-trip every field *exactly*: floats are stored as IEEE-754
//! bit patterns, never re-parsed from text, so decoded results produce
//! byte-identical aggregates and JSON.
//!
//! Every encoded result starts with a magic tag and
//! [`RESULT_SCHEMA_VERSION`]. Decoding a result with a different
//! version fails with [`CodecError::SchemaMismatch`], which the cache
//! treats as a miss — stale results from before a result-shape change
//! are silently recomputed instead of silently mixed in. **Bump the
//! version whenever [`RunResult`] or any struct reachable from it
//! changes shape or meaning.**

use hack_mac::MacStats;
use hack_rohc::{CompressStats, DecompressStats};
use hack_sim::{Counter, QuantileSketch, SimDuration, SimTime, TimeAccumulator};
use hack_tcp::TcpStats;

use crate::driver::CompressSideStats;
use crate::scenario::{ClassReport, RunResult};
use crate::supervisor::{FlowHealth, SupervisorReport, SupervisorStats};
use crate::traffic::TrafficClass;

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
pub const RESULT_SCHEMA_VERSION: u32 = 5;

/// File magic for encoded results.
const MAGIC: &[u8; 4] = b"HKRR";

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

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("result vector fits u32"));
    }
    fn vec_f64(&mut self, v: &[f64]) {
        self.len(v.len());
        for &x in v {
            self.f64(x);
        }
    }
    fn counter(&mut self, c: Counter) {
        self.u64(c.get());
    }
    fn accum(&mut self, t: &TimeAccumulator) {
        self.u64(t.total().as_nanos());
        self.u64(t.events());
    }
}

fn write_mac(w: &mut Writer, m: &MacStats) {
    w.counter(m.mpdus_first_try);
    w.counter(m.mpdus_retried);
    w.counter(m.mpdus_dropped);
    w.counter(m.tx_attempts);
    w.counter(m.responses_sent);
    w.counter(m.responses_with_blob);
    w.counter(m.ack_timeouts);
    w.counter(m.bars_sent);
    w.counter(m.bars_exhausted);
    w.counter(m.rx_garbage);
    w.counter(m.rx_fcs_bad);
    w.accum(&m.acquire_wait_data);
    w.accum(&m.acquire_wait_ack);
    w.accum(&m.airtime_data);
    w.accum(&m.airtime_ack);
    w.accum(&m.airtime_response);
    w.accum(&m.airtime_blob);
    w.counter(m.blob_within_aifs);
    w.counter(m.blob_beyond_aifs);
    w.accum(&m.ll_ack_overhead);
}

fn write_driver(w: &mut Writer, d: &CompressSideStats) {
    w.u64(d.native_acks);
    w.u64(d.native_ack_bytes);
    w.u64(d.hacked_acks);
    w.u64(d.hacked_ack_bytes);
    w.u64(d.reenqueued);
    w.u64(d.dropped_on_flush);
    w.u64(d.timer_flushes);
    w.u64(d.spilled);
    w.u64(d.noop_flushes);
    w.u64(d.forced_native);
}

fn write_sketch(w: &mut Writer, s: &QuantileSketch) {
    let (count, sum, min, max, entries) = s.to_sparse();
    w.u64(count);
    w.u64(sum);
    w.u64(min);
    w.u64(max);
    w.len(entries.len());
    for (i, c) in entries {
        w.u32(u32::from(i));
        w.u64(c);
    }
}

fn write_tcp(w: &mut Writer, t: &TcpStats) {
    w.u64(t.data_segments_sent);
    w.u64(t.retransmits);
    w.u64(t.fast_retransmits);
    w.u64(t.timeouts);
    w.u64(t.acks_sent);
    w.u64(t.dupacks_received);
    w.u64(t.bytes_delivered);
    w.u64(t.bytes_acked);
    w.u64(t.rtt_samples);
    w.u64(t.rtt_sum_us);
}

/// Serialize a [`RunResult`] under [`RESULT_SCHEMA_VERSION`].
pub fn encode_run_result(r: &RunResult) -> Vec<u8> {
    let mut w = Writer {
        out: Vec::with_capacity(1024),
    };
    w.out.extend_from_slice(MAGIC);
    w.u32(RESULT_SCHEMA_VERSION);
    w.vec_f64(&r.flow_goodput_mbps);
    w.f64(r.aggregate_goodput_mbps);
    w.vec_f64(&r.flow_goodput_full_mbps);
    w.len(r.flow_completion.len());
    for c in &r.flow_completion {
        match c {
            None => w.u8(0),
            Some(t) => {
                w.u8(1);
                w.u64(t.as_nanos());
            }
        }
    }
    w.len(r.mac.len());
    for m in &r.mac {
        write_mac(&mut w, m);
    }
    w.len(r.driver.len());
    for d in &r.driver {
        write_driver(&mut w, d);
    }
    w.len(r.driver_ap.len());
    for d in &r.driver_ap {
        write_driver(&mut w, d);
    }
    w.len(r.compressor.len());
    for c in &r.compressor {
        w.u64(c.compressed);
        w.u64(c.compressed_bytes);
        w.u64(c.original_bytes);
        w.u64(c.declined);
    }
    w.u64(r.decompressor.decompressed);
    w.u64(r.decompressor.duplicates);
    w.u64(r.decompressor.crc_failures);
    w.u64(r.decompressor.no_context);
    w.u64(r.decompressor.malformed);
    w.u64(r.ppdus);
    w.u64(r.events_dispatched);
    w.u64(r.collisions);
    w.u64(r.ap_queue_drops);
    w.len(r.sender_tcp.len());
    for t in &r.sender_tcp {
        write_tcp(&mut w, t);
    }
    w.len(r.receiver_tcp.len());
    for t in &r.receiver_tcp {
        write_tcp(&mut w, t);
    }
    w.f64(r.blob_within_aifs);
    w.len(r.supervisor.len());
    for s in &r.supervisor {
        w.u8(s.final_state.code());
        w.u64(s.stats.degraded);
        w.u64(s.stats.fallbacks);
        w.u64(s.stats.probations);
        w.u64(s.stats.recoveries);
        w.u64(s.stats.refreshes);
        w.u64(s.stats.handoffs);
        w.u64(s.stats.est_divergence);
    }
    w.vec_f64(&r.flow_goodput_final_mbps);
    w.u64(r.roams);
    w.len(r.classes.len());
    for c in &r.classes {
        w.u8(c.class.code());
        w.u64(c.flows as u64);
        w.u64(c.transfers);
        w.f64(c.goodput_mbps);
        write_sketch(&mut w, &c.fct);
        write_sketch(&mut w, &c.latency);
        write_sketch(&mut w, &c.jitter);
    }
    w.out
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        if end > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        // A length that could not possibly fit the remaining bytes is
        // corruption, not a huge allocation request.
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }
    fn vec_f64(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len()?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn counter(&mut self) -> Result<Counter, CodecError> {
        Ok(Counter::from_value(self.u64()?))
    }
    fn accum(&mut self) -> Result<TimeAccumulator, CodecError> {
        let total = SimDuration::from_nanos(self.u64()?);
        let events = self.u64()?;
        Ok(TimeAccumulator::from_parts(total, events))
    }
}

fn read_mac(r: &mut Reader) -> Result<MacStats, CodecError> {
    Ok(MacStats {
        mpdus_first_try: r.counter()?,
        mpdus_retried: r.counter()?,
        mpdus_dropped: r.counter()?,
        tx_attempts: r.counter()?,
        responses_sent: r.counter()?,
        responses_with_blob: r.counter()?,
        ack_timeouts: r.counter()?,
        bars_sent: r.counter()?,
        bars_exhausted: r.counter()?,
        rx_garbage: r.counter()?,
        rx_fcs_bad: r.counter()?,
        acquire_wait_data: r.accum()?,
        acquire_wait_ack: r.accum()?,
        airtime_data: r.accum()?,
        airtime_ack: r.accum()?,
        airtime_response: r.accum()?,
        airtime_blob: r.accum()?,
        blob_within_aifs: r.counter()?,
        blob_beyond_aifs: r.counter()?,
        ll_ack_overhead: r.accum()?,
    })
}

fn read_driver(r: &mut Reader) -> Result<CompressSideStats, CodecError> {
    Ok(CompressSideStats {
        native_acks: r.u64()?,
        native_ack_bytes: r.u64()?,
        hacked_acks: r.u64()?,
        hacked_ack_bytes: r.u64()?,
        reenqueued: r.u64()?,
        dropped_on_flush: r.u64()?,
        timer_flushes: r.u64()?,
        spilled: r.u64()?,
        noop_flushes: r.u64()?,
        forced_native: r.u64()?,
    })
}

fn read_sketch(r: &mut Reader) -> Result<QuantileSketch, CodecError> {
    let count = r.u64()?;
    let sum = r.u64()?;
    let min = r.u64()?;
    let max = r.u64()?;
    let n = r.len()?;
    let entries = (0..n)
        .map(|_| {
            let i = u16::try_from(r.u32()?).map_err(|_| CodecError::BadValue)?;
            Ok((i, r.u64()?))
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    QuantileSketch::from_sparse(count, sum, min, max, &entries).ok_or(CodecError::BadValue)
}

fn read_tcp(r: &mut Reader) -> Result<TcpStats, CodecError> {
    Ok(TcpStats {
        data_segments_sent: r.u64()?,
        retransmits: r.u64()?,
        fast_retransmits: r.u64()?,
        timeouts: r.u64()?,
        acks_sent: r.u64()?,
        dupacks_received: r.u64()?,
        bytes_delivered: r.u64()?,
        bytes_acked: r.u64()?,
        rtt_samples: r.u64()?,
        rtt_sum_us: r.u64()?,
    })
}

/// Deserialize a [`RunResult`] previously produced by
/// [`encode_run_result`]. Fails with [`CodecError::SchemaMismatch`]
/// when the stored schema version differs from this build's.
pub fn decode_run_result(bytes: &[u8]) -> Result<RunResult, CodecError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u32()?;
    if version != RESULT_SCHEMA_VERSION {
        return Err(CodecError::SchemaMismatch {
            found: version,
            expected: RESULT_SCHEMA_VERSION,
        });
    }
    let flow_goodput_mbps = r.vec_f64()?;
    let aggregate_goodput_mbps = r.f64()?;
    let flow_goodput_full_mbps = r.vec_f64()?;
    let n = r.len()?;
    let flow_completion = (0..n)
        .map(|_| match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(SimTime::from_nanos(r.u64()?))),
            _ => Err(CodecError::BadValue),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let n = r.len()?;
    let mac = (0..n).map(|_| read_mac(&mut r)).collect::<Result<_, _>>()?;
    let n = r.len()?;
    let driver = (0..n)
        .map(|_| read_driver(&mut r))
        .collect::<Result<_, _>>()?;
    let n = r.len()?;
    let driver_ap = (0..n)
        .map(|_| read_driver(&mut r))
        .collect::<Result<_, _>>()?;
    let n = r.len()?;
    let compressor = (0..n)
        .map(|_| {
            Ok(CompressStats {
                compressed: r.u64()?,
                compressed_bytes: r.u64()?,
                original_bytes: r.u64()?,
                declined: r.u64()?,
            })
        })
        .collect::<Result<_, CodecError>>()?;
    let decompressor = DecompressStats {
        decompressed: r.u64()?,
        duplicates: r.u64()?,
        crc_failures: r.u64()?,
        no_context: r.u64()?,
        malformed: r.u64()?,
    };
    let ppdus = r.u64()?;
    let events_dispatched = r.u64()?;
    let collisions = r.u64()?;
    let ap_queue_drops = r.u64()?;
    let n = r.len()?;
    let sender_tcp = (0..n).map(|_| read_tcp(&mut r)).collect::<Result<_, _>>()?;
    let n = r.len()?;
    let receiver_tcp = (0..n).map(|_| read_tcp(&mut r)).collect::<Result<_, _>>()?;
    let blob_within_aifs = r.f64()?;
    let n = r.len()?;
    let supervisor = (0..n)
        .map(|_| {
            let final_state = FlowHealth::from_code(r.u8()?).ok_or(CodecError::BadValue)?;
            Ok(SupervisorReport {
                final_state,
                stats: SupervisorStats {
                    degraded: r.u64()?,
                    fallbacks: r.u64()?,
                    probations: r.u64()?,
                    recoveries: r.u64()?,
                    refreshes: r.u64()?,
                    handoffs: r.u64()?,
                    est_divergence: r.u64()?,
                },
            })
        })
        .collect::<Result<_, CodecError>>()?;
    let flow_goodput_final_mbps = r.vec_f64()?;
    let roams = r.u64()?;
    let n = r.len()?;
    let classes = (0..n)
        .map(|_| {
            let class = TrafficClass::from_code(r.u8()?).ok_or(CodecError::BadValue)?;
            Ok(ClassReport {
                class,
                flows: usize::try_from(r.u64()?).map_err(|_| CodecError::BadValue)?,
                transfers: r.u64()?,
                goodput_mbps: r.f64()?,
                fct: read_sketch(&mut r)?,
                latency: read_sketch(&mut r)?,
                jitter: read_sketch(&mut r)?,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    if r.pos != bytes.len() {
        // Trailing bytes mean the shapes disagree even though the
        // version matched — treat as corruption.
        return Err(CodecError::BadValue);
    }
    Ok(RunResult {
        flow_goodput_mbps,
        aggregate_goodput_mbps,
        flow_goodput_full_mbps,
        flow_completion,
        classes,
        mac,
        driver,
        driver_ap,
        compressor,
        decompressor,
        ppdus,
        events_dispatched,
        collisions,
        ap_queue_drops,
        sender_tcp,
        receiver_tcp,
        blob_within_aifs,
        supervisor,
        flow_goodput_final_mbps,
        roams,
    })
}

/// Byte offset of the schema version field inside an encoded result —
/// exposed so tests (and only tests) can forge a bumped version.
pub const SCHEMA_VERSION_OFFSET: usize = MAGIC.len();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::HackMode;
    use crate::scenario::ScenarioBuilder;
    use crate::sim::World;
    use hack_sim::SimDuration;

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
}
