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
//! compile-time audit in `crates/shard/tests/send_sync.rs`). Per-shard
//! ingested counts are written into disjoint chunks of a result vector and
//! summed after the barrier, so the total is order-independent too.

use swamp_codec::ngsi::Entity;
use swamp_core::platform::Platform;
use swamp_sim::SimTime;

/// Splits `shards` into one contiguous chunk per worker and pumps every
/// shard once at `now`, returning the summed ingested count. `stagger_ms`
/// (test seam; normally empty) delays shard `i`'s pump by `stagger_ms[i]`
/// wall-clock milliseconds to skew worker finish order — output must not
/// change, which is what the merge-barrier ordering test asserts.
pub(crate) fn pump_round(
    shards: &mut [Platform],
    workers: usize,
    now: SimTime,
    stagger_ms: &[u64],
) -> usize {
    let n = shards.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return shards.iter_mut().map(|s| s.pump(now)).sum();
    }
    let chunk = n.div_ceil(workers);
    let mut counts = vec![0usize; n];
    std::thread::scope(|scope| {
        for (chunk_idx, (shard_chunk, count_chunk)) in shards
            .chunks_mut(chunk)
            .zip(counts.chunks_mut(chunk))
            .enumerate()
        {
            scope.spawn(move || {
                for (off, (shard, count)) in shard_chunk
                    .iter_mut()
                    .zip(count_chunk.iter_mut())
                    .enumerate()
                {
                    sleep_stagger(stagger_ms, chunk_idx * chunk + off);
                    *count = shard.pump(now);
                }
            });
        }
        // Leaving the scope joins every worker: the merge barrier.
    });
    counts.iter().sum()
}

/// Applies pre-partitioned entity batches (`batches[i]` targets shard `i`)
/// across the worker pool, returning the summed applied count. Empty
/// batches are skipped without entering the shard's ingest span, at any
/// worker count.
pub(crate) fn ingest_round(
    shards: &mut [Platform],
    workers: usize,
    now: SimTime,
    batches: Vec<Vec<Entity>>,
) -> usize {
    let n = shards.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return shards
            .iter_mut()
            .zip(batches)
            .map(|(s, b)| {
                if b.is_empty() {
                    0
                } else {
                    s.ingest_entities(now, b)
                }
            })
            .sum();
    }
    let chunk = n.div_ceil(workers);
    let mut counts = vec![0usize; n];
    let mut batches = batches;
    std::thread::scope(|scope| {
        let mut rest_shards: &mut [Platform] = shards;
        let mut rest_counts: &mut [usize] = &mut counts;
        while !rest_shards.is_empty() {
            let take = chunk.min(rest_shards.len());
            let (shard_chunk, shards_tail) = rest_shards.split_at_mut(take);
            let (count_chunk, counts_tail) = rest_counts.split_at_mut(take);
            rest_shards = shards_tail;
            rest_counts = counts_tail;
            let batch_chunk: Vec<Vec<Entity>> = batches.drain(..take).collect();
            scope.spawn(move || {
                for ((shard, count), batch) in shard_chunk
                    .iter_mut()
                    .zip(count_chunk.iter_mut())
                    .zip(batch_chunk)
                {
                    if !batch.is_empty() {
                        *count = shard.ingest_entities(now, batch);
                    }
                }
            });
        }
    });
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
