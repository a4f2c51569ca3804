//! Microbenchmarks of the dense kernels: the classic f64-accumulating
//! vecops against the unrolled multi-accumulator variants, the register-
//! tiled `gemm_nt` against per-row dots, and the k-vs-all backward's
//! `gemm_nn_acc` (pass A) and `gemm_tn_acc` (pass B), all at WN18-like
//! shape (n·D = 400, thousands of entity rows).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mei_math::kernels::{
    dot_fast, gemm_nn_acc, gemm_nt, gemm_tn_acc, hadamard_axpy_fast, trilinear_fast,
};
use mei_math::vecops::{dot, hadamard_axpy, trilinear};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 400;

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bench_vecops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let a = random_vec(&mut rng, K);
    let b = random_vec(&mut rng, K);
    let cc = random_vec(&mut rng, K);

    let mut group = c.benchmark_group("vecops_400");
    group.bench_function("dot (f64 scalar)", |ben| ben.iter(|| dot(black_box(&a), black_box(&b))));
    group.bench_function("dot_fast (8-lane)", |ben| {
        ben.iter(|| dot_fast(black_box(&a), black_box(&b)))
    });
    group.bench_function("trilinear (f64 scalar)", |ben| {
        ben.iter(|| trilinear(black_box(&a), black_box(&b), black_box(&cc)))
    });
    group.bench_function("trilinear_fast (8-lane)", |ben| {
        ben.iter(|| trilinear_fast(black_box(&a), black_box(&b), black_box(&cc)))
    });
    let mut out = vec![0.0f32; K];
    group.bench_function("hadamard_axpy", |ben| {
        ben.iter(|| {
            hadamard_axpy(0.5, black_box(&a), black_box(&b), &mut out);
            out[0]
        })
    });
    group.bench_function("hadamard_axpy_fast", |ben| {
        ben.iter(|| {
            hadamard_axpy_fast(0.5, black_box(&a), black_box(&b), &mut out);
            out[0]
        })
    });
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    // 32 query contexts against an 8192-row slice of an entity table:
    // big enough that blocking matters, small enough to iterate quickly.
    let (m, n) = (32usize, 8192usize);
    let mut rng = StdRng::seed_from_u64(11);
    let a = random_vec(&mut rng, m * K);
    let b = random_vec(&mut rng, n * K);
    let mut out = vec![0.0f32; m * n];

    let mut group = c.benchmark_group("gemm_32x8192x400");
    group.sample_size(10);
    group.bench_function("gemm_nt (blocked)", |ben| {
        ben.iter(|| {
            gemm_nt(black_box(&a), black_box(&b), K, &mut out);
            out[0]
        })
    });
    // The k-vs-all backward at the same shape: `w` stands in for the
    // m×n softmax residuals.
    let w = random_vec(&mut rng, m * n);
    let mut gctx = vec![0.0f32; m * K];
    group.bench_function("gemm_nn_acc (pass A)", |ben| {
        ben.iter(|| {
            gemm_nn_acc(black_box(&w), black_box(&b), K, &mut gctx);
            gctx[0]
        })
    });
    let mut gent = vec![0.0f32; n * K];
    group.bench_function("gemm_tn_acc (pass B)", |ben| {
        ben.iter(|| {
            gemm_tn_acc(black_box(&w), n, black_box(&a), K, 0, &mut gent);
            gent[0]
        })
    });
    group.bench_function("per-query dot_fast rows", |ben| {
        // The unblocked layout: each query streams the whole table.
        ben.iter(|| {
            for i in 0..m {
                let arow = &a[i * K..(i + 1) * K];
                for j in 0..n {
                    out[i * n + j] = dot_fast(black_box(arow), &b[j * K..(j + 1) * K]);
                }
            }
            out[0]
        })
    });
    group.bench_function("per-query f64 dot rows (legacy)", |ben| {
        ben.iter(|| {
            for i in 0..m {
                let arow = &a[i * K..(i + 1) * K];
                for j in 0..n {
                    out[i * n + j] = dot(black_box(arow), &b[j * K..(j + 1) * K]);
                }
            }
            out[0]
        })
    });
    group.finish();
}

criterion_group!(benches, bench_vecops, bench_gemm);
criterion_main!(benches);
