//! `hack-rohc` and the HACK driver (`hack-core` `driver.rs`) on a
//! generated stream of delayed TCP ACKs.

use hack_core::{CompressSide, DecompressSide, DriverAction, HackMode};
use hack_mac::RxDataInfo;
use hack_phy::StationId;
use hack_rohc::{build_blob, BlobItem, CidMap, Compressor, Decompressor};
use hack_sim::SimTime;
use hack_tcp::{
    flags, FiveTuple, Ipv4Addr, Ipv4Packet, TcpOption, TcpOptions, TcpSegment, TcpSeq, Transport,
};

use super::{Ctx, Pool, BATCHES, PER_BATCH};

/// ACKs in a steady-state blob: one per two MPDUs of a 42-MPDU A-MPDU.
const BLOB_ACKS: usize = 21;
/// ACKs the driver holds per cycle in the hold/flush replays.
const HELD: usize = 8;

/// The delayed-ACK stream of one download: every ACK covers two more
/// segments, one more IP ident and one more timestamp tick than the
/// last. Where it starts depends on the seed.
#[derive(Debug, Clone)]
struct AckStream {
    port: u16,
    ackno: u32,
    ident: u16,
    ts: u32,
}

impl AckStream {
    fn new(seed: u64, flow: u16) -> Self {
        let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        AckStream {
            port: 40_000 + flow,
            ackno: (mix >> 32) as u32,
            ident: (mix >> 16) as u16,
            ts: mix as u32,
        }
    }

    fn tuple(&self) -> FiveTuple {
        self.clone().next().five_tuple()
    }

    fn next(&mut self) -> Ipv4Packet {
        self.ackno = self.ackno.wrapping_add(2920);
        self.ident = self.ident.wrapping_add(1);
        self.ts = self.ts.wrapping_add(1);
        // Pushed, not collected: packet construction stays off the heap.
        let mut options = TcpOptions::new();
        options.push(TcpOption::Timestamps {
            tsval: self.ts,
            tsecr: self.ts.wrapping_sub(3),
        });
        Ipv4Packet {
            src: Ipv4Addr::new(192, 168, 0, 2),
            dst: Ipv4Addr::new(10, 0, 0, 1),
            ident: self.ident,
            ttl: 64,
            transport: Transport::Tcp(TcpSegment {
                src_port: self.port,
                dst_port: 5001,
                seq: TcpSeq(7777),
                ack: TcpSeq(self.ackno),
                flags: flags::ACK,
                window: 1024,
                options,
                payload_len: 0,
            }),
        }
    }
}

/// `(rohc.compress_ns, rohc.decode_ns_per_ack)`: compress + confirm of
/// the next ACK of an established flow, then `Decompressor::decode` of
/// a 21-ACK blob, per ACK. The decoded ACKs must equal the inputs.
pub fn compress_and_decode(cx: &mut Ctx<'_>) -> (f64, f64) {
    let mut stream = AckStream::new(cx.seed, 0);
    let seed_ack = stream.next();
    let mut comp = Compressor::new();
    comp.observe_native(&seed_ack);
    let mut compressed = true;
    let compress_ns = cx.batches("rohc.compress", || {
        let ack = stream.next();
        compressed &= std::hint::black_box(comp.compress(&ack)).is_some();
        comp.confirm(&ack);
    });
    cx.check(compressed, "the compressor declined a steady-state ACK");

    // One blob against a context seeded with the same native ACK.
    let mut stream = AckStream::new(cx.seed, 0);
    let seed_ack = stream.next();
    let mut comp = Compressor::new();
    comp.observe_native(&seed_ack);
    let inputs: Vec<Ipv4Packet> = (0..BLOB_ACKS).map(|_| stream.next()).collect();
    let segments: Vec<_> = inputs
        .iter()
        .map(|a| comp.compress(a).expect("a steady-state ACK compresses"))
        .collect();
    let blob = build_blob(&segments);
    let mut decomp = Decompressor::new();
    let mut equal = true;
    let decode_ns = cx.batches("rohc.decode", || {
        // Re-observing the seed ACK rewinds the context, so every call
        // decodes the same bytes the way a long-lived AP context would.
        decomp.observe_native(&seed_ack);
        let mut want = inputs.iter();
        for item in decomp.decode(std::hint::black_box(&blob)) {
            equal &= matches!((&item, want.next()), (BlobItem::Packet(p), Some(w)) if p == w);
        }
        equal &= want.next().is_none();
    });
    cx.check(equal, "decoded ACKs differ from the compressed inputs");
    (compress_ns, decode_ns / BLOB_ACKS as f64)
}

/// A connection's first ACKs on a five-tuple never seen before:
/// `observe_native` derives the CID (`cid_for_tuple`, one MD5) and
/// creates the context, the next ACK compresses, the context is torn
/// down. What every fresh short flow pays.
pub fn ctx_setup(cx: &mut Ctx<'_>) -> f64 {
    let mut comp = Compressor::new();
    let (seed, mut flow, mut ok) = (cx.seed, 0u16, true);
    let ns = cx.batches("rohc.ctx_setup", || {
        flow += 1;
        let mut stream = AckStream::new(seed, flow);
        let first = stream.next();
        comp.observe_native(&first);
        ok &= comp.compress(&stream.next()).is_some();
        ok &= comp.drop_context(&first.five_tuple());
    });
    cx.check(ok, "a fresh flow's second ACK did not compress");
    cx.check(comp.context_count() == 0, "a torn-down context survived");
    ns
}

/// `CidMap::get` with 64 concurrent flows.
pub fn cid_lookup(cx: &mut Ctx<'_>) -> f64 {
    let tuples: Vec<FiveTuple> = (0..64)
        .map(|f| AckStream::new(cx.seed, f).tuple())
        .collect();
    let mut map = CidMap::new();
    for (cid, t) in tuples.iter().enumerate() {
        map.insert(*t, cid as u8);
    }
    let (mut i, mut ok) = (0usize, true);
    let ns = cx.batches("rohc.cid_lookup", || {
        i = (i + 1) % tuples.len();
        ok &= std::hint::black_box(map.get(std::hint::black_box(&tuples[i]))) == Some(i as u8);
    });
    cx.check(ok, "a CID lookup missed or returned another flow's CID");
    ns
}

fn data_received() -> RxDataInfo {
    RxDataInfo {
        from: StationId(0),
        mpdus_ok: 2,
        more_data: true,
        sync: false,
        advances_seq: true,
        is_aggregate: true,
    }
}

/// Hand every blob buffer in `actions` back to the driver, the way the
/// MAC displacing the previous blob does; whether there was one.
fn recycle(driver: &mut CompressSide, actions: Vec<DriverAction>) -> bool {
    let mut installed = false;
    for a in actions {
        if let DriverAction::InstallBlob { bytes, .. } = a {
            installed = true;
            driver.recycle_blob(bytes);
        }
    }
    installed
}

/// A latched compress side: one native ACK seeded the context, MORE
/// DATA is set.
fn latched(stream: &mut AckStream, now: SimTime) -> CompressSide {
    let mut driver = CompressSide::new(HackMode::MoreData);
    driver.on_ack_out(stream.next(), now);
    driver.on_data_received(&data_received(), now);
    driver
}

/// `(driver.hold_cycle_ns, driver.flush_ns)`. Hold cycle: eight
/// `on_ack_out` (each patches the blob cache and re-installs), the blob
/// rides (`on_response_sent`), the next data frame confirms all eight
/// (`on_data_received`); per ACK. Flush: `force_native` with eight
/// held, per call, inside a cycle that holds eight and resumes.
pub fn hold_and_flush(cx: &mut Ctx<'_>, timer_ns: f64) -> (f64, f64) {
    let now = SimTime::from_millis(2);
    let info = data_received();
    let mut stream = AckStream::new(cx.seed, 1);
    let mut driver = latched(&mut stream, now);
    let mut ok = true;
    let hold_ns = cx.batches("driver.hold_cycle", || {
        for _ in 0..HELD {
            let actions = driver.on_ack_out(stream.next(), now);
            ok &= recycle(&mut driver, actions);
        }
        let actions = driver.on_response_sent(true, now);
        recycle(&mut driver, actions);
        let actions = driver.on_data_received(&info, now);
        recycle(&mut driver, actions);
        ok &= driver.held_count() == 0;
    });
    cx.check(
        ok,
        "a held ACK did not re-install the blob or was not confirmed",
    );
    cx.check(
        driver.stats().hacked_acks > 0 && driver.stats().spilled == 0,
        "the hold cycle spilled or never rode",
    );

    // Flush: only `force_native` is timed, call by call, so the cost
    // of reading the clock is taken off again.
    let mut stream = AckStream::new(cx.seed, 2);
    let mut driver = latched(&mut stream, now);
    let mut pool = Pool::new("driver.flush");
    let (mut natives, mut held_ok) = (0usize, true);
    for _ in 0..(BATCHES + 1) * PER_BATCH {
        for _ in 0..HELD {
            let actions = driver.on_ack_out(stream.next(), now);
            held_ok &= recycle(&mut driver, actions);
        }
        let flushed = pool.time(cx, || driver.force_native(now), |_| 1);
        natives += flushed
            .iter()
            .filter(|a| matches!(a, DriverAction::SendNative(_)))
            .count();
        recycle(&mut driver, flushed);
        driver.resume_hack();
        driver.on_data_received(&info, now);
    }
    let cycles = driver.stats().forced_native as usize;
    cx.check(
        held_ok && cycles > 0 && natives == cycles * HELD,
        "a flush did not re-enqueue every unridden ACK natively",
    );
    (
        hold_ns / HELD as f64,
        (pool.ns_per_call() - timer_ns).max(0.0),
    )
}

/// `DecompressSide::on_blob_with` of a 21-ACK blob, per blob.
pub fn blob_decode(cx: &mut Ctx<'_>) -> f64 {
    let now = SimTime::from_millis(2);
    let mut stream = AckStream::new(cx.seed, 3);
    let seed_ack = stream.next();
    let mut comp = Compressor::new();
    comp.observe_native(&seed_ack);
    let inputs: Vec<Ipv4Packet> = (0..BLOB_ACKS).map(|_| stream.next()).collect();
    let segments: Vec<_> = inputs
        .iter()
        .map(|a| comp.compress(a).expect("a steady-state ACK compresses"))
        .collect();
    let blob = build_blob(&segments);
    let mut side = DecompressSide::new();
    let (mut equal, mut blobs) = (true, 0u64);
    let ns = cx.batches("driver.blob_decode", || {
        side.on_native_ack(&seed_ack, now);
        let mut want = inputs.iter();
        side.on_blob_with(std::hint::black_box(&blob), now, |p| {
            equal &= want.next() == Some(&p);
        });
        equal &= want.next().is_none();
        blobs += 1;
    });
    cx.check(equal, "forwarded ACKs differ from the compressed inputs");
    cx.check(
        side.forwarded == blobs * BLOB_ACKS as u64 && side.stats().crc_failures == 0,
        "a blob lost ACKs on the way through the driver",
    );
    ns
}
