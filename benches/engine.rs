//! Microbenchmarks for the hot engine primitive behind every run: the
//! slab event queue (schedule / pop / cancel).
//!
//! Run with `cargo bench --bench engine`. The vendored criterion shim
//! prints mean time per iteration; there is no statistical machinery, so
//! compare numbers only across runs on the same host.

use criterion::{criterion_group, criterion_main, BatchSize, Bencher, Criterion};

use rapid_transit::sim::{EventQueue, SimDuration, SimTime};

/// Events pushed per queue iteration — enough to exercise heap reshuffles
/// and slot recycling without dominating the bench in setup.
const QUEUE_EVENTS: u64 = 256;

fn queue_schedule_pop(b: &mut Bencher) {
    b.iter(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Interleave two time streams so pops actually reorder the heap.
        for i in 0..QUEUE_EVENTS {
            let t = if i % 2 == 0 { i } else { QUEUE_EVENTS + i };
            q.schedule(SimTime::ZERO + SimDuration::from_micros(t), i);
        }
        let mut sum = 0u64;
        while let Some((_, v)) = q.pop() {
            sum = sum.wrapping_add(v);
        }
        sum
    });
}

fn queue_cancel(b: &mut Bencher) {
    b.iter_batched(
        || {
            let mut q: EventQueue<u64> = EventQueue::new();
            let ids: Vec<_> = (0..QUEUE_EVENTS)
                .map(|i| q.schedule(SimTime::ZERO + SimDuration::from_micros(i), i))
                .collect();
            (q, ids)
        },
        |(mut q, ids)| {
            // Cancel every other event, then drain: the pop loop must skip
            // the tombstones, which is the path a timeout-heavy run exercises.
            for id in ids.iter().step_by(2) {
                q.cancel(*id);
            }
            let mut live = 0u64;
            while q.pop().is_some() {
                live += 1;
            }
            live
        },
        BatchSize::SmallInput,
    );
}

fn engine_benches(c: &mut Criterion) {
    c.bench_function("queue/schedule_pop_256", queue_schedule_pop);
    c.bench_function("queue/cancel_half_256", queue_cancel);
}

criterion_group!(benches, engine_benches);
criterion_main!(benches);
