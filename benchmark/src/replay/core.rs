//! What a campaign job pays around its world (`hack-core` `codec.rs`
//! and `stable.rs`), `hack-trace`, and the harness's own clock.

use std::time::Instant;

use hack_core::{decode_run_result, encode_run_result, RunResult, ScenarioConfig};
use hack_trace::{Digest, Event, TraceHandle};

use super::Ctx;

/// Cost of one `Instant::now()` pair: what a span costs to record.
pub fn timer(cx: &mut Ctx<'_>) -> f64 {
    let mut sink = 0u128;
    let ns = cx.batches("bench.timer", || {
        sink += std::hint::black_box(Instant::now()).elapsed().as_nanos();
    });
    std::hint::black_box(sink);
    ns
}

/// `(world.codec_encode_us, world.codec_decode_us, world.stable_hash_us)`
/// on one campaign job's result and config.
pub fn codec_and_hash(
    cx: &mut Ctx<'_>,
    cfg: &ScenarioConfig,
    result: &RunResult,
) -> (f64, f64, f64) {
    let mut bytes = Vec::new();
    let encode_ns = cx.batches("world.codec_encode", || {
        bytes = encode_run_result(std::hint::black_box(result));
    });
    let mut decoded = true;
    let decode_ns = cx.batches("world.codec_decode", || {
        decoded &= std::hint::black_box(decode_run_result(std::hint::black_box(&bytes))).is_ok();
    });
    let round_trip = decode_run_result(&bytes).map(|r| encode_run_result(&r));
    cx.check(
        decoded && round_trip.is_ok_and(|b| b == bytes),
        "a result did not survive the codec byte for byte",
    );
    let mut key = String::new();
    let hash_ns = cx.batches("world.stable_hash", || {
        key = std::hint::black_box(cfg).stable_hash_hex();
    });
    let mut other = cfg.clone();
    other.seed ^= 1;
    cx.check(
        key.len() == 32 && key == cfg.stable_hash_hex() && key != other.stable_hash_hex(),
        "the stable hash is not a function of the config",
    );
    (encode_ns / 1e3, decode_ns / 1e3, hash_ns / 1e3)
}

/// `(trace.emit_ns, trace.digest_us)`: `TraceHandle::emit` into a ring
/// sink, then draining a full 4096-record ring and digesting it (what
/// a digest-pin test does after its run).
pub fn emit_and_digest(cx: &mut Ctx<'_>) -> (f64, f64) {
    const RING: usize = 4096;
    let (handle, ring) = TraceHandle::ring(RING);
    let mut t = cx.seed;
    let emit_ns = cx.batches("trace.emit", || {
        t += 1;
        handle.emit(t, (t % 5) as u32, Event::MacBackoff { slots: 7, cw: 15 });
    });
    cx.check(
        ring.emitted() == t - cx.seed && ring.emitted() > RING as u64,
        "the ring sink dropped emits",
    );
    let live = ring.digest();
    let mut drained = Digest::of_records(&[]);
    let digest_ns = cx.samples("trace.digest", 32, || {
        drained = Digest::of_records(std::hint::black_box(&ring.drain()));
    });
    cx.check(
        drained.events == RING as u64 && live.events == ring.emitted(),
        "the drained ring is not full or the live digest lost count",
    );
    (emit_ns, digest_ns / 1e3)
}
