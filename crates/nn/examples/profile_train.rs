//! Profiling driver: times the phases of one training step.

use neurite::{Activation, Adam, Dense, Dropout, FocalLoss, Loss, Lstm, Matrix, Sequential};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    // Paper LSTM shape: 6 features, seq 5, 16 hidden, deep dense stack.
    let mut model = Sequential::new()
        .add(Lstm::new(6, 16, 5, Activation::Elu, &mut rng))
        .add(Dropout::new(0.2, 1))
        .add(Dense::new(16, 32, Activation::Elu, &mut rng))
        .add(Dense::new(32, 96, Activation::Elu, &mut rng))
        .add(Dense::new(96, 32, Activation::Elu, &mut rng))
        .add(Dense::new(32, 16, Activation::Elu, &mut rng))
        .add(Dense::new(16, 112, Activation::Elu, &mut rng))
        .add(Dense::new(112, 48, Activation::Elu, &mut rng))
        .add(Dense::new(48, 64, Activation::Elu, &mut rng))
        .add(Dense::new(64, 3, Activation::Linear, &mut rng));
    let x = Matrix::glorot(32, 30, &mut rng);
    let y: Vec<usize> = (0..32).map(|i| i % 3).collect();
    let loss = FocalLoss::new(2.0);
    let mut opt = Adam::new(0.003);

    // Warmup.
    for _ in 0..50 {
        model.train_step(&x, &y, &loss, &mut opt);
    }
    let n = 2000;

    let t = Instant::now();
    for _ in 0..n {
        model.train_step(&x, &y, &loss, &mut opt);
    }
    let full = t.elapsed().as_secs_f64() / n as f64;

    let t = Instant::now();
    for _ in 0..n {
        model.grad_step(&x, &y, &loss);
    }
    let gstep = t.elapsed().as_secs_f64() / n as f64;

    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(model.forward(&x, true));
    }
    let fwd = t.elapsed().as_secs_f64() / n as f64;

    let t = Instant::now();
    for _ in 0..n {
        model.apply_grads(&mut opt);
    }
    let apply = t.elapsed().as_secs_f64() / n as f64;

    let logits = model.forward(&x, true);
    let t = Instant::now();
    for _ in 0..n {
        std::hint::black_box(loss.loss_and_grad(&logits, &y));
    }
    let l = t.elapsed().as_secs_f64() / n as f64;

    println!("train_step {:8.2} us", full * 1e6);
    println!("grad_step  {:8.2} us", gstep * 1e6);
    println!("forward    {:8.2} us (train mode, escapes pool)", fwd * 1e6);
    println!("apply      {:8.2} us", apply * 1e6);
    println!("loss       {:8.2} us", l * 1e6);
    println!(
        "implied backward = grad_step - forward - loss ≈ {:8.2} us",
        (gstep - fwd - l) * 1e6
    );
    println!("rows/s = {:.0}", 32.0 / full);
}
