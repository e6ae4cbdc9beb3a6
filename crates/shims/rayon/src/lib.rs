//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! Implements `par_chunks_mut(..).enumerate().for_each(..)` over slices
//! and `(a..b).into_par_iter().map(..)/.flat_map_iter(..).collect()` over
//! `usize` ranges on **one persistent pool** of [`current_num_threads`]
//! worker threads, started lazily by the first parallel call. Work is
//! split into a few contiguous blocks per thread and
//! results are concatenated in input order — so, like rayon, output is
//! identical at any thread count.
//!
//! A call made from a pool worker (a nested parallel call) runs inline on
//! that worker. A call from any other thread — the main thread, a fleet
//! cluster worker, a server worker — lets at most
//! `current_num_threads() - 1` pool workers help, claims blocks itself
//! until none are left, and then waits for the blocks a pool worker
//! claimed. A block that panics re-raises on the caller once every
//! sibling block has finished; the pool worker that ran it survives.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Worker threads in the pool (cores, capped to keep thread counts sane
/// on very wide hosts). The one thread-count definition in the
/// workspace: kernels that size their blocks by it call this.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    })
}

/// Blocks a parallel call is split into, per pool thread. With more
/// blocks than threads, whichever thread is running claims the next
/// block, so a thread that is preempted or still waking holds up one
/// small block rather than a thread's whole share of the call.
const BLOCKS_PER_THREAD: usize = 4;

/// Blocks a parallel call is split into.
fn block_count() -> usize {
    BLOCKS_PER_THREAD * current_num_threads()
}

// ---------------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------------

thread_local! {
    /// Set on pool workers: their parallel calls run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The process-wide worker pool: a FIFO of tickets, each naming a call
/// whose blocks a worker may claim. Its workers are never joined: they
/// serve every parallel call for the life of the process.
///
/// Every lock in this module is taken through `PoisonError::into_inner`:
/// no critical section runs caller code (block panics are caught outside
/// them), so none can be left half-done.
struct Pool {
    queue: Mutex<VecDeque<Arc<Call>>>,
    ready: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }));
        for i in 0..current_num_threads() {
            std::thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("spawn pool worker");
        }
        pool
    })
}

/// A worker pops one ticket at a time and runs the blocks it can claim
/// from that call. The queue guard is confined to the pop, so no job
/// ever runs under the queue lock.
fn worker_loop(pool: &'static Pool) {
    IN_POOL.with(|p| p.set(true));
    loop {
        let call = next_ticket(pool);
        call.run_claimed();
        call.settle(1);
    }
}

/// Blocks until a ticket is queued and pops it.
fn next_ticket(pool: &Pool) -> Arc<Call> {
    let mut queue = pool.queue.lock().unwrap_or_else(PoisonError::into_inner);
    loop {
        if let Some(call) = queue.pop_front() {
            return call;
        }
        queue = pool
            .ready
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// One parallel call: `n` blocks behind a shared claim counter.
struct Call {
    /// The caller's per-block body with its lifetime erased (see the
    /// SAFETY comment in [`run_parallel`]). Dereferenced only to run a
    /// claimed block.
    body: &'static (dyn Fn(usize) + Sync),
    n: usize,
    next: AtomicUsize,
    state: Mutex<CallState>,
    done: Condvar,
}

struct CallState {
    /// Tickets not yet accounted for: still queued, or popped by a
    /// worker that has not released them.
    tickets: usize,
    /// First panic payload raised by a block.
    panic: Option<Box<dyn Any + Send>>,
}

impl Call {
    /// Claims and runs blocks until none are left; a panicking block's
    /// payload is kept for the caller.
    fn run_claimed(&self) {
        loop {
            // Relaxed: the counter only hands out indices. The body and
            // the results are published through the queue and state locks.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(i))) {
                let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
                state.panic.get_or_insert(payload);
            }
        }
    }

    /// Accounts for `k` tickets (popped and done, or removed from the
    /// queue unpopped); wakes the caller when the last one goes.
    fn settle(&self, k: usize) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.tickets -= k;
        if state.tickets == 0 {
            self.done.notify_all();
        }
    }
}

/// Whether a parallel call on this thread runs inline: on a pool worker
/// (a nested call) or on a single-core host.
fn runs_inline() -> bool {
    current_num_threads() <= 1 || IN_POOL.with(Cell::get)
}

/// Runs `body(0..n)`, each index once, across the pool; returns when
/// every block has finished. Re-raises the first block panic.
fn run_parallel(n: usize, body: &(dyn Fn(usize) + Sync)) {
    if n <= 1 || runs_inline() {
        (0..n).for_each(body);
        return;
    }
    let pool = pool();
    // The caller works too, so `current_num_threads() - 1` helpers keep
    // one call from putting more threads to work than there are cores.
    let tickets = (n - 1).min(current_num_threads() - 1);
    // Block panics are caught in `run_claimed`, so nothing below unwinds
    // before the wait for the tickets at the end.
    // SAFETY: `body` is only dereferenced to run a claimed block, and this
    // call does not return until every ticket is settled (removed from
    // the queue unpopped, or settled by its worker after its last claim).
    let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
    let call = Arc::new(Call {
        body,
        n,
        next: AtomicUsize::new(0),
        state: Mutex::new(CallState {
            tickets,
            panic: None,
        }),
        done: Condvar::new(),
    });
    {
        let mut queue = pool.queue.lock().unwrap_or_else(PoisonError::into_inner);
        for _ in 0..tickets {
            queue.push_back(Arc::clone(&call));
        }
    }
    for _ in 0..tickets {
        pool.ready.notify_one();
    }
    call.run_claimed();
    // Every block is claimed; tickets no worker has popped yet are stale.
    let stale = {
        let mut queue = pool.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let before = queue.len();
        queue.retain(|t| !Arc::ptr_eq(t, &call));
        before - queue.len()
    };
    if stale > 0 {
        call.settle(stale);
    }
    let payload = {
        let mut state = call.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.tickets > 0 {
            state = call
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.panic.take()
    };
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// Mutable slice chunks.
// ---------------------------------------------------------------------------

/// `par_chunks_mut` provider for slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunksMut {
            chunks: self.chunks_mut(size).collect(),
        }
    }
}

/// Parallel mutable-chunk iterator (chunks are pre-split, so the only
/// parallel step is dispatching them).
pub struct ParChunksMut<'a, T> {
    chunks: Vec<&'a mut [T]>,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pairs each chunk with its index.
    pub fn enumerate(self) -> ParEnumerateChunksMut<'a, T> {
        ParEnumerateChunksMut {
            chunks: self.chunks.into_iter().enumerate().collect(),
        }
    }

    /// Runs `f` on every chunk across the worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&'a mut [T]) + Send + Sync,
    {
        run_items(self.chunks, &f);
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct ParEnumerateChunksMut<'a, T> {
    chunks: Vec<(usize, &'a mut [T])>,
}

impl<'a, T: Send> ParEnumerateChunksMut<'a, T> {
    /// Runs `f` on every `(index, chunk)` pair across the worker threads.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &'a mut [T])) + Send + Sync,
    {
        run_items(self.chunks, &f);
    }
}

/// Distributes owned work items over the pool in contiguous blocks.
fn run_items<I, F>(items: Vec<I>, f: &F)
where
    I: Send,
    F: Fn(I) + Send + Sync,
{
    if items.len() <= 1 || runs_inline() {
        items.into_iter().for_each(f);
        return;
    }
    let size = items.len().div_ceil(block_count());
    let mut items = items.into_iter();
    let mut blocks = Vec::new();
    loop {
        let block: Vec<I> = items.by_ref().take(size).collect();
        if block.is_empty() {
            break;
        }
        blocks.push(Mutex::new(block));
    }
    run_parallel(blocks.len(), &|b| {
        let block = std::mem::take(&mut *blocks[b].lock().unwrap_or_else(PoisonError::into_inner));
        block.into_iter().for_each(f);
    });
}

// ---------------------------------------------------------------------------
// Index ranges.
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (only `Range<usize>` is needed in
/// this workspace).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel `usize` range.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Lazily maps each index through `f`.
    pub fn map<T, F>(self, f: F) -> ParRangeMap<F>
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }

    /// Lazily expands each index into a serial iterator (rayon's
    /// `flat_map_iter`: the produced iterators run serially within one
    /// index, indices run in parallel).
    pub fn flat_map_iter<I, F>(self, f: F) -> ParRangeFlatMap<F>
    where
        I: IntoIterator,
        F: Fn(usize) -> I + Send + Sync,
    {
        ParRangeFlatMap {
            range: self.range,
            f,
        }
    }
}

/// Splits `range` into at most `nt` contiguous sub-ranges.
fn split_range(range: Range<usize>, nt: usize) -> Vec<Range<usize>> {
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return Vec::new();
    }
    let block = len.div_ceil(nt);
    let mut out = Vec::new();
    let mut s = range.start;
    while s < range.end {
        let e = (s + block).min(range.end);
        out.push(s..e);
        s = e;
    }
    out
}

/// Runs one `Vec`-producing job per sub-range and concatenates in order.
fn run_blocks<T, F>(range: Range<usize>, per_block: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> Vec<T> + Send + Sync,
{
    let len = range.end.saturating_sub(range.start);
    if len <= 1 || runs_inline() {
        return per_block(range);
    }
    let blocks = split_range(range, block_count());
    let slots: Vec<Mutex<Vec<T>>> = blocks.iter().map(|_| Mutex::new(Vec::new())).collect();
    run_parallel(blocks.len(), &|b| {
        let out = per_block(blocks[b].clone());
        *slots[b].lock().unwrap_or_else(PoisonError::into_inner) = out;
    });
    let mut out = Vec::with_capacity(len);
    for slot in slots {
        out.extend(slot.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    out
}

/// Mapped parallel range.
pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    /// Executes the map and collects results in index order.
    pub fn collect<T, C>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Send + Sync,
        C: From<Vec<T>>,
    {
        let f = self.f;
        C::from(run_blocks(self.range, |block| block.map(&f).collect()))
    }
}

/// Flat-mapped parallel range.
pub struct ParRangeFlatMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeFlatMap<F> {
    /// Executes the expansion and collects results in index order.
    pub fn collect<T, I, C>(self) -> C
    where
        T: Send,
        I: IntoIterator<Item = T>,
        F: Fn(usize) -> I + Send + Sync,
        C: From<Vec<T>>,
    {
        let f = self.f;
        C::from(run_blocks(self.range, |block| block.flat_map(&f).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{block_count, current_num_threads};
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn par_map_preserves_order() {
        let out: Vec<usize> = (0..10_000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..10_000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_flat_map_iter_preserves_order() {
        let out: Vec<usize> = (0..1_000)
            .into_par_iter()
            .flat_map_iter(|i| (0..i % 3).map(move |k| i * 10 + k))
            .collect();
        let expect: Vec<usize> = (0..1_000)
            .flat_map(|i| (0..i % 3).map(move |k| i * 10 + k))
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        let mut v = vec![0u32; 1003];
        v.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x += i as u32 + 1;
            }
        });
        let mut expect = vec![0u32; 1003];
        for (i, chunk) in expect.chunks_mut(10).enumerate() {
            for x in chunk.iter_mut() {
                *x += i as u32 + 1;
            }
        }
        assert_eq!(v, expect);
    }

    #[test]
    fn empty_range_collects_empty() {
        let out: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn block_panic_reaches_caller_after_siblings_and_pool_survives() {
        let n = 64;
        let raised = AtomicBool::new(false);
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let out: Vec<usize> = (0..n)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        raised.store(true, Ordering::SeqCst);
                        panic!("block 0 fails");
                    }
                    // Blocks are claimed in index order, so a thread that
                    // claims block 0 and a sibling runs block 0 first:
                    // every sibling finishes after the panic is raised,
                    // and the caller must still wait for it.
                    while !raised.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    i
                })
                .collect();
            out
        }));
        let payload = caught.expect_err("the block panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"block 0 fails"));
        // Every index outside the panicking block ran to completion
        // before the caller saw the panic.
        let block = n.div_ceil(block_count());
        assert_eq!(finished.load(Ordering::SeqCst), n - block);
        for _ in 0..3 {
            let out: Vec<usize> = (0..1000).into_par_iter().map(|i| i + 1).collect();
            assert_eq!(out, (1..1001).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_calls_do_not_deadlock_when_every_worker_is_busy() {
        let outer = current_num_threads() + 2;
        let sums: Vec<usize> = (0..outer)
            .into_par_iter()
            .map(|i| {
                // Keeps the workers busy while the inner calls queue; no
                // outcome depends on the timing.
                std::thread::sleep(Duration::from_millis(5));
                let inner: Vec<usize> = (0..1000).into_par_iter().map(|j| i * j).collect();
                assert_eq!(inner, (0..1000).map(|j| i * j).collect::<Vec<_>>());
                inner.iter().sum()
            })
            .collect();
        let expect: Vec<usize> = (0..outer).map(|i| i * (0..1000).sum::<usize>()).collect();
        assert_eq!(sums, expect);

        let mut v = vec![0usize; outer];
        v.par_chunks_mut(1).enumerate().for_each(|(i, cell)| {
            let inner: Vec<usize> = (0..100).into_par_iter().map(|j| j + i).collect();
            cell[0] = inner.iter().sum();
        });
        assert_eq!(v, (0..outer).map(|i| 4950 + 100 * i).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_external_callers_get_their_own_ordered_results() {
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                std::thread::spawn(move || {
                    for round in 0..20usize {
                        let out: Vec<usize> = (0..5_000)
                            .into_par_iter()
                            .map(|i| i * 8 + t + round)
                            .collect();
                        let expect: Vec<usize> = (0..5_000).map(|i| i * 8 + t + round).collect();
                        assert_eq!(out, expect, "caller {t} round {round}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("caller thread");
        }
    }
}
