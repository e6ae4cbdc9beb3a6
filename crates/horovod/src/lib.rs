//! `hvd-ring` — Horovod-style synchronous data-parallel training.
//!
//! The paper distributes LSTM/MLP training over a DGX A100 with Horovod
//! (Sergeev & Del Balso 2018): every GPU holds a model replica, computes
//! gradients on its own shard of each batch wave, the gradients are
//! averaged with a **ring all-reduce** (Patarasuk & Yuan 2009), rank 0
//! broadcasts the initial variables, and every rank then applies the same
//! optimiser step — replicas stay bit-identical without a parameter
//! server. This crate implements that stack over OS threads as "GPUs":
//!
//! - [`ring`] — the bandwidth-optimal chunked ring all-reduce
//!   (scatter-reduce + all-gather over `std::sync::mpsc` channels) plus
//!   the naive rank-0 gather/scatter reduction used as an ablation
//!   baseline;
//! - [`trainer`] — the synchronous data-parallel training loop (shard,
//!   grad, all-reduce, identical local update), with wall-clock
//!   throughput statistics for the paper's Table IV / Figure 5;
//! - [`costmodel`] — a calibrated DGX timing model (Amdahl input-pipeline
//!   serial fraction + ring latency/bandwidth terms) that reproduces the
//!   paper's 7.25× @ 8 GPU speedup curve deterministically on any host.

pub mod costmodel;
pub mod ring;
pub mod trainer;

pub use costmodel::{DgxCostModel, GpuScalingRow};
pub use ring::{broadcast_from_rank0, naive_allreduce, ring_allreduce};
pub use trainer::{DistributedTrainer, TrainStats, TrainerConfig};
