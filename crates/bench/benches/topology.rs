//! Criterion: topology primitives — path computation and chain sorting,
//! the inner loops of schedule construction.  (The windowed contention
//! checker is timed in `benches/netcheck.rs`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use optmc::experiments::random_placement;
use std::hint::black_box;
use topo::{Bmin, Chain, Mesh, NodeId, Topology, UpPolicy};

fn bench_det_path(c: &mut Criterion) {
    let mesh = Mesh::new(&[16, 16]);
    let bmin = Bmin::new(7, UpPolicy::Straight);
    c.bench_function("det_path_mesh16x16", |b| {
        b.iter(|| mesh.det_path(black_box(NodeId(0)), black_box(NodeId(255))));
    });
    c.bench_function("det_path_bmin128", |b| {
        b.iter(|| bmin.det_path(black_box(NodeId(0)), black_box(NodeId(127))));
    });
}

fn bench_chain_sort(c: &mut Criterion) {
    let mesh = Mesh::new(&[16, 16]);
    let mut g = c.benchmark_group("chain_sort_mesh");
    for k in [32usize, 128, 256] {
        let parts = random_placement(256, k, 3);
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| Chain::sorted(&mesh, black_box(&parts), parts[0]));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_det_path, bench_chain_sort);
criterion_main!(benches);
