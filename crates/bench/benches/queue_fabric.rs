//! Micro-benchmark of the two queue rings ([`QueueKind`]) on the
//! engine's hottest path: moving jumbo tuples across a single
//! producer→consumer replica pair.
//!
//! Methodology: each iteration ping-pongs a **pre-built** payload through
//! the queue (push then pop), so the numbers isolate pure queue overhead —
//! no tuple allocation noise, exactly the per-jumbo synchronization cost
//! the engine pays per queue crossing. The shapes, per ring:
//!
//! * `push_pop_u64` — minimal element, the raw fabric floor.
//! * `jumbo_push_pop_64` — one [`JumboTuple`] of 64 tuples per crossing
//!   (the default `jumbo_size`); throughput is reported per *tuple*.
//! * `jumbo64_payload64B` / `jumbo64_payload1KB` — the same crossing with
//!   64-byte and 1-KiB payloads behind the batch handle. Under the
//!   zero-copy fabric the queue moves a `(slab, start, len)` handle, so
//!   these should price like the u64 jumbo row — that invariance (not the
//!   absolute number) is what the rows gate. A fabric that copied payloads
//!   would scale with payload size and show up immediately here.
//! * `batch8_jumbo64` — eight `try_push`es drained by one `pop_n` (a
//!   single head publish), the consumer's grouped drain path.
//! * `xcore_pingpong_jumbo64` — the **2-thread** variant: a dedicated
//!   consumer thread echoes each jumbo back on a second queue, so every
//!   iteration is a genuine cross-thread round trip (two queue crossings
//!   with real cache-line traffic between cores). On a 1-vCPU container
//!   the two threads time-share, so treat those numbers as a smoke signal
//!   there and as a real cross-core measurement only on multi-core hosts.
//!
//! Both rings run the same shapes — the CAS-claimed MPSC ring's
//! single-producer numbers price the fan-in wiring the engine selects for
//! multi-producer (Global funnel) edges against the SPSC floor. Results
//! are recorded in `BENCH_queue.json` at the repo root.

use brisk_runtime::{Batch, JumboTuple, QueueKind, ReplicaQueue};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::sync::Arc;

fn jumbo(n: usize) -> JumboTuple {
    JumboTuple::new(
        0,
        0,
        Batch::from_rows((0..n).map(|i| (i as u64, 0, i as u64))),
    )
}

/// A jumbo of `n` tuples each carrying a `BYTES`-byte opaque payload in
/// the shared slab.
fn payload_jumbo<const BYTES: usize>(n: usize) -> JumboTuple {
    JumboTuple::new(
        0,
        0,
        Batch::from_rows((0..n).map(|i| ([0u8; BYTES], 0, i as u64))),
    )
}

/// Ping-pong `carried` through a fresh queue of `kind` (push then pop per
/// iteration, so the ring is never full): pure queue overhead for whatever
/// payload sits behind the batch handle.
fn pingpong_jumbo(b: &mut criterion::Bencher, kind: QueueKind, seed: JumboTuple) {
    let q: ReplicaQueue<JumboTuple> = ReplicaQueue::new(kind, 64);
    let mut carried = Some(seed);
    b.iter(|| {
        q.try_push(carried.take().expect("carried")).expect("room");
        carried = q.try_pop();
        std::hint::black_box(carried.is_some())
    });
}

fn bench_kind(c: &mut Criterion, kind: QueueKind) {
    let name = format!("queue_fabric/{kind}");
    let mut g = c.benchmark_group(&name);

    g.throughput(Throughput::Elements(1));
    g.bench_function("push_pop_u64", |b| {
        let q: ReplicaQueue<u64> = ReplicaQueue::new(kind, 1024);
        let mut i = 0u64;
        b.iter(|| {
            q.try_push(i).expect("room");
            i = i.wrapping_add(1);
            std::hint::black_box(q.try_pop())
        });
    });

    g.throughput(Throughput::Elements(64));
    g.bench_function("jumbo_push_pop_64", |b| {
        // Ping-pong one pre-built jumbo: measures queue overhead per
        // 64-tuple group, not tuple construction.
        pingpong_jumbo(b, kind, jumbo(64));
    });

    g.throughput(Throughput::Elements(64));
    g.bench_function("jumbo64_payload64B", |b| {
        pingpong_jumbo(b, kind, payload_jumbo::<64>(64));
    });

    g.throughput(Throughput::Elements(64));
    g.bench_function("jumbo64_payload1KB", |b| {
        pingpong_jumbo(b, kind, payload_jumbo::<1024>(64));
    });

    g.throughput(Throughput::Elements(8 * 64));
    g.bench_function("batch8_jumbo64", |b| {
        let q: ReplicaQueue<JumboTuple> = ReplicaQueue::new(kind, 64);
        let mut carried: Vec<JumboTuple> = (0..8).map(|_| jumbo(64)).collect();
        b.iter(|| {
            for jumbo in carried.drain(..) {
                q.try_push(jumbo).expect("room");
            }
            q.pop_n(&mut carried, 8);
            std::hint::black_box(carried.len())
        });
    });

    g.throughput(Throughput::Elements(64));
    g.bench_function("xcore_pingpong_jumbo64", |b| {
        // Producer (bench thread) → `up` → echo thread → `down` → bench
        // thread: each queue keeps exactly one producer and one consumer,
        // so the SPSC contract holds across real threads.
        let up: Arc<ReplicaQueue<JumboTuple>> = Arc::new(ReplicaQueue::new(kind, 64));
        let down: Arc<ReplicaQueue<JumboTuple>> = Arc::new(ReplicaQueue::new(kind, 64));
        let echo = {
            let up = Arc::clone(&up);
            let down = Arc::clone(&down);
            std::thread::spawn(move || loop {
                match up.try_pop() {
                    // One jumbo is in flight at a time, so `down` is never
                    // full: a refusal means the bench closed it.
                    Some(jumbo) => {
                        if down.try_push(jumbo).is_err() {
                            break;
                        }
                    }
                    None => {
                        if up.is_closed() {
                            break;
                        }
                        // Yield, not spin: keeps the bench honest on
                        // single-vCPU hosts where the threads time-share.
                        std::thread::yield_now();
                    }
                }
            })
        };
        let mut carried = Some(jumbo(64));
        b.iter(|| {
            up.try_push(carried.take().expect("carried")).expect("room");
            loop {
                if let Some(back) = down.try_pop() {
                    carried = Some(back);
                    break;
                }
                std::thread::yield_now();
            }
        });
        up.close();
        down.close();
        echo.join().expect("echo thread");
    });

    g.finish();
}

fn bench_queue_fabric(c: &mut Criterion) {
    bench_kind(c, QueueKind::Spsc);
    bench_kind(c, QueueKind::Mpsc);
}

criterion_group!(benches, bench_queue_fabric);
criterion_main!(benches);
