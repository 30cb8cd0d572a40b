//! The worker pool: advances isolated shards on scoped threads.
//!
//! Shards are fully isolated [`Platform`]s — disjoint fabrics, brokers,
//! stores and RNG streams — so within one round, pumping shard `i` and
//! shard `j` are independent operations whose results cannot depend on
//! execution order or interleaving. The pool exploits exactly that: the
//! shard vector is split into one contiguous chunk per worker, each worker
//! advances its shards on its own `std::thread::scope` thread, and the
//! scope's implicit join is the **merge barrier** — control returns to the
//! caller only when every shard has finished its round, after which the
//! caller (`ShardedPlatform::pump`) runs the cross-shard aggregation pass
//! serially in shard-id order. Nothing downstream of the barrier can
//! observe which worker finished first, so the fingerprint (merged
//! history + cloud record set + summed counters) and the labelled obs
//! export stay byte-identical to the serial schedule; the differential
//! suite in `crates/pilots/tests/shard_differential.rs` proves it at
//! worker counts {1, 2, 8}.
//!
//! No new runtime dependency: `std::thread::scope` borrows `&mut [Platform]`
//! chunks directly (this is what forces `Platform: Send`, pinned by the
//! compile-time audit in `crates/shard/tests/send_sync.rs`). A pump and an
//! ingest are the same fan-out (`round`) with a different per-shard
//! input. Per-shard counts are written into disjoint chunks of a result
//! vector and summed in shard order after the barrier, so the total is
//! order-independent too.

use swamp_core::platform::Platform;

/// Advances every shard once: splits `shards` into one contiguous chunk
/// per worker and runs `step(shard, input)` on each shard with its own
/// input (`inputs[i]` goes to shard `i`: `()` for a pump, the routed batch
/// for an ingest), returning the per-shard counts summed in shard order
/// after the join. `stagger_ms` (test seam; normally empty) delays shard
/// `i`'s step by `stagger_ms[i]` wall-clock milliseconds to skew worker
/// finish order — output must not change, which is what the merge-barrier
/// ordering test asserts.
pub(crate) fn round<I: Send>(
    shards: &mut [Platform],
    workers: usize,
    stagger_ms: &[u64],
    inputs: Vec<I>,
    step: impl Fn(&mut Platform, I) -> usize + Sync,
) -> usize {
    let n = shards.len();
    let chunk = n.div_ceil(workers.clamp(1, n.max(1)));
    let mut counts = vec![0usize; n];
    let run = |first: usize, shards: &mut [Platform], counts: &mut [usize], inputs: Vec<I>| {
        for (off, ((shard, count), input)) in shards.iter_mut().zip(counts).zip(inputs).enumerate()
        {
            sleep_stagger(stagger_ms, first + off);
            *count = step(shard, input);
        }
    };
    if chunk >= n {
        run(0, shards, &mut counts, inputs);
    } else {
        let mut inputs = inputs.into_iter();
        std::thread::scope(|scope| {
            for (chunk_idx, (shard_chunk, count_chunk)) in shards
                .chunks_mut(chunk)
                .zip(counts.chunks_mut(chunk))
                .enumerate()
            {
                let input_chunk: Vec<I> = inputs.by_ref().take(shard_chunk.len()).collect();
                let run = &run;
                scope.spawn(move || run(chunk_idx * chunk, shard_chunk, count_chunk, input_chunk));
            }
            // Leaving the scope joins every worker: the merge barrier.
        });
    }
    counts.iter().sum()
}

/// Sleeps the test-seam stagger for global shard index `idx`, if one is
/// configured. Wall-clock only — never observable in any exported state.
fn sleep_stagger(stagger_ms: &[u64], idx: usize) {
    if let Some(ms) = stagger_ms.get(idx).copied() {
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }
}
