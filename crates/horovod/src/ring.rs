//! Ring all-reduce (Patarasuk & Yuan 2009) over worker threads.
//!
//! The buffer is cut into `N` chunks. In the **scatter-reduce** phase each
//! worker, for `N−1` steps, sends one chunk clockwise and adds the chunk
//! arriving from its left neighbour into its own buffer; after the phase,
//! chunk `(i+1) mod N` is fully reduced at worker `i`. The **all-gather**
//! phase circulates those reduced chunks for another `N−1` steps. Every
//! worker sends `2(N−1)/N · L` elements regardless of `N` — the
//! bandwidth-optimality Horovod relies on.
//!
//! [`RingNode`] is the per-worker handle: persistent trainer threads hold
//! one each and call [`RingNode::allreduce`] every step (it doubles as the
//! synchronisation barrier). [`ring_allreduce`] / [`broadcast_from_rank0`]
//! are one-shot conveniences over scoped threads. [`naive_allreduce`]
//! (gather-to-rank-0 + scatter — the parameter-server pattern) exists for
//! the ablation bench: rank 0 moves `2(N−1)·L` elements there, N× the
//! ring's per-link traffic.

use std::sync::mpsc::{channel, Receiver, Sender};

/// Chunk boundaries: `n_chunks` near-equal ranges covering `len`.
fn chunk_bounds(len: usize, n_chunks: usize) -> Vec<(usize, usize)> {
    let base = len / n_chunks;
    let extra = len % n_chunks;
    let mut out = Vec::with_capacity(n_chunks);
    let mut start = 0;
    for i in 0..n_chunks {
        let sz = base + usize::from(i < extra);
        out.push((start, start + sz));
        start += sz;
    }
    out
}

/// One worker's handle into a ring of `n` workers.
pub struct RingNode {
    rank: usize,
    n: usize,
    tx: Sender<Vec<f32>>,
    rx: Receiver<Vec<f32>>,
}

impl RingNode {
    /// Builds a ring of `n` connected nodes (index = rank).
    pub fn ring(n: usize) -> Vec<RingNode> {
        assert!(n > 0, "need at least one worker");
        let mut channels = Vec::with_capacity(n);
        for _ in 0..n {
            channels.push(channel::<Vec<f32>>());
        }
        let mut txs: Vec<Option<Sender<Vec<f32>>>> = Vec::with_capacity(n);
        let mut rxs: Vec<Option<Receiver<Vec<f32>>>> = (0..n).map(|_| None).collect();
        for (i, (tx, rx)) in channels.into_iter().enumerate() {
            txs.push(Some(tx));
            rxs[(i + 1) % n] = Some(rx);
        }
        (0..n)
            .map(|rank| RingNode {
                rank,
                n,
                tx: txs[rank].take().expect("tx"),
                rx: rxs[rank].take().expect("rx"),
            })
            .collect()
    }

    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// In-place sum all-reduce across the ring. Must be called by every
    /// node of the ring concurrently with equal buffer lengths; acts as a
    /// synchronisation barrier.
    pub fn allreduce(&self, buf: &mut [f32]) {
        let n = self.n;
        if n == 1 {
            return;
        }
        let bounds = chunk_bounds(buf.len(), n);
        let rank = self.rank;
        // Scatter-reduce.
        for step in 0..n - 1 {
            let send_chunk = (rank + n - step) % n;
            let (s, e) = bounds[send_chunk];
            self.tx.send(buf[s..e].to_vec()).expect("ring send");
            let recv_chunk = (rank + n - step - 1) % n;
            let data = self.rx.recv().expect("ring recv");
            let (s, e) = bounds[recv_chunk];
            for (dst, src) in buf[s..e].iter_mut().zip(&data) {
                *dst += src;
            }
        }
        // All-gather.
        for step in 0..n - 1 {
            let send_chunk = (rank + 1 + n - step) % n;
            let (s, e) = bounds[send_chunk];
            self.tx.send(buf[s..e].to_vec()).expect("ring send");
            let recv_chunk = (rank + n - step) % n;
            let data = self.rx.recv().expect("ring recv");
            let (s, e) = bounds[recv_chunk];
            buf[s..e].copy_from_slice(&data);
        }
    }

    /// Averaging all-reduce: sum then divide by world size — Horovod's
    /// `DistributedOptimizer` gradient averaging.
    pub fn allreduce_mean(&self, buf: &mut [f32]) {
        self.allreduce(buf);
        let inv = 1.0 / self.n as f32;
        for v in buf.iter_mut() {
            *v *= inv;
        }
    }

    /// Broadcast from rank 0 along the ring: rank 0 keeps `buf` and sends
    /// it; every other rank overwrites `buf` with the received value and
    /// forwards (except the last). Horovod's
    /// `BroadcastGlobalVariablesCallback(0)`.
    pub fn broadcast_rank0(&self, buf: &mut Vec<f32>) {
        if self.n == 1 {
            return;
        }
        if self.rank == 0 {
            self.tx.send(buf.clone()).expect("broadcast send");
        } else {
            let value = self.rx.recv().expect("broadcast recv");
            *buf = value;
            if self.rank != self.n - 1 {
                self.tx.send(buf.clone()).expect("broadcast send");
            }
        }
    }
}

/// One-shot ring all-reduce over scoped threads (test/bench harness).
pub fn ring_allreduce(buffers: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    let n = buffers.len();
    assert!(n > 0, "need at least one worker");
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "all buffers must share a length"
    );
    let nodes = RingNode::ring(n);
    run_on_ring(nodes, buffers, |node, buf| {
        node.allreduce(buf.as_mut_slice())
    })
}

/// One-shot broadcast of rank 0's buffer over scoped threads.
pub fn broadcast_from_rank0(buffers: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    let n = buffers.len();
    assert!(n > 0, "need at least one worker");
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "all buffers must share a length"
    );
    let nodes = RingNode::ring(n);
    run_on_ring(nodes, buffers, |node, buf| node.broadcast_rank0(buf))
}

fn run_on_ring<F>(nodes: Vec<RingNode>, buffers: Vec<Vec<f32>>, op: F) -> Vec<Vec<f32>>
where
    F: Fn(&RingNode, &mut Vec<f32>) + Send + Sync,
{
    let n = buffers.len();
    let op = &op;
    let mut out: Vec<Option<Vec<f32>>> = vec![None; n];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (node, mut buf) in nodes.into_iter().zip(buffers) {
            handles.push(scope.spawn(move || {
                op(&node, &mut buf);
                (node.rank, buf)
            }));
        }
        for h in handles {
            let (rank, buf) = h.join().expect("ring worker panicked");
            out[rank] = Some(buf);
        }
    });
    out.into_iter().map(|b| b.expect("missing rank")).collect()
}

/// Naive parameter-server reduction: gather every buffer at rank 0, sum,
/// and hand copies back. Same result as [`ring_allreduce`]; rank 0 is the
/// bandwidth bottleneck. Ablation baseline.
pub fn naive_allreduce(buffers: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    let n = buffers.len();
    assert!(n > 0, "need at least one worker");
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "all buffers must share a length"
    );
    let mut sum = vec![0.0f32; len];
    for b in &buffers {
        for (s, v) in sum.iter_mut().zip(b) {
            *s += v;
        }
    }
    (0..n).map(|_| sum.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_buffers(n: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect()
    }

    fn expected_sum(buffers: &[Vec<f32>]) -> Vec<f32> {
        let len = buffers[0].len();
        let mut sum = vec![0.0f32; len];
        for b in buffers {
            for (s, v) in sum.iter_mut().zip(b) {
                *s += v;
            }
        }
        sum
    }

    #[test]
    fn chunk_bounds_cover_everything() {
        for (len, n) in [(10, 3), (7, 7), (3, 5), (16, 4), (1, 2)] {
            let b = chunk_bounds(len, n);
            assert_eq!(b.len(), n);
            assert_eq!(b[0].0, 0);
            assert_eq!(b.last().unwrap().1, len);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
        }
    }

    #[test]
    fn ring_matches_direct_sum() {
        for &(n, len) in &[(2usize, 16usize), (3, 17), (4, 64), (8, 1000), (5, 3)] {
            let buffers = random_buffers(n, len, (n * len) as u64);
            let expect = expected_sum(&buffers);
            let reduced = ring_allreduce(buffers);
            assert_eq!(reduced.len(), n);
            for (rank, r) in reduced.iter().enumerate() {
                for (i, (a, b)) in r.iter().zip(&expect).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "n={n} len={len} rank={rank} elem {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_all_ranks_agree() {
        let reduced = ring_allreduce(random_buffers(6, 100, 9));
        for r in &reduced[1..] {
            assert_eq!(r, &reduced[0]);
        }
    }

    #[test]
    fn ring_single_worker_is_identity() {
        let buffers = vec![vec![1.0, 2.0, 3.0]];
        assert_eq!(ring_allreduce(buffers.clone()), buffers);
    }

    #[test]
    fn ring_handles_len_smaller_than_workers() {
        let buffers = random_buffers(6, 2, 4);
        let expect = expected_sum(&buffers);
        let reduced = ring_allreduce(buffers);
        for r in reduced {
            for (a, b) in r.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn naive_matches_ring() {
        let buffers = random_buffers(4, 50, 21);
        let ring = ring_allreduce(buffers.clone());
        let naive = naive_allreduce(buffers);
        for (r, n) in ring.iter().zip(&naive) {
            for (a, b) in r.iter().zip(n) {
                assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn broadcast_propagates_rank0() {
        let mut buffers = random_buffers(5, 20, 33);
        let rank0 = buffers[0].clone();
        for b in buffers.iter_mut().skip(1) {
            for v in b.iter_mut() {
                *v = -99.0;
            }
        }
        let out = broadcast_from_rank0(buffers);
        for b in out {
            assert_eq!(b, rank0);
        }
    }

    #[test]
    fn reusable_nodes_support_repeated_rounds() {
        // Persistent trainer threads call allreduce every step; verify
        // the same nodes work across multiple rounds.
        let n = 4;
        let nodes = RingNode::ring(n);
        let mut out: Vec<Vec<f32>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = nodes
                .into_iter()
                .map(|node| {
                    scope.spawn(move || {
                        let mut results = Vec::new();
                        for round in 0..5 {
                            let mut buf = vec![(node.rank() + round) as f32; 8];
                            node.allreduce_mean(&mut buf);
                            results.push(buf[0]);
                        }
                        (node.rank(), results)
                    })
                })
                .collect();
            let mut per_rank: Vec<Option<Vec<f32>>> = vec![None; n];
            for h in handles {
                let (rank, results) = h.join().unwrap();
                per_rank[rank] = Some(results);
            }
            out = per_rank.into_iter().map(|r| r.unwrap()).collect();
        });
        // Round r: mean over ranks of (rank + r) = 1.5 + r.
        for results in &out {
            for (round, &v) in results.iter().enumerate() {
                assert!(
                    (v - (1.5 + round as f32)).abs() < 1e-5,
                    "round {round}: {v}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn mismatched_lengths_panic() {
        let _ = ring_allreduce(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn ring_correct_for_any_shape(n in 2usize..8, len in 1usize..200, seed in 0u64..50) {
                let buffers = random_buffers(n, len, seed);
                let expect = expected_sum(&buffers);
                let reduced = ring_allreduce(buffers);
                for r in reduced {
                    for (a, b) in r.iter().zip(&expect) {
                        prop_assert!((a - b).abs() < 1e-3);
                    }
                }
            }
        }
    }
}
