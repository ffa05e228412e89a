//! Microbenchmarks of the simulated allocators' hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lifepred_heap::{ArenaAllocator, ArenaConfig, BsdMalloc, FirstFit};

/// One allocate-then-free cycle per iteration, the allocator's fast
/// path (sizes cycle through a small realistic mix).
fn sim_allocators(c: &mut Criterion) {
    let sizes: [u32; 8] = [16, 24, 8, 48, 32, 104, 16, 64];

    let mut group = c.benchmark_group("sim_alloc_free");
    group.bench_function("first_fit", |b| {
        let mut heap = FirstFit::new();
        let mut i = 0usize;
        b.iter(|| {
            let a = heap.alloc(sizes[i % sizes.len()]);
            heap.free(black_box(a));
            i += 1;
        });
    });
    group.bench_function("bsd", |b| {
        let mut heap = BsdMalloc::new();
        let mut i = 0usize;
        b.iter(|| {
            let a = heap.alloc(sizes[i % sizes.len()]);
            heap.free(black_box(a));
            i += 1;
        });
    });
    group.bench_function("arena_predicted", |b| {
        let mut heap = ArenaAllocator::new(ArenaConfig::default());
        let mut i = 0usize;
        b.iter(|| {
            let a = heap.alloc(sizes[i % sizes.len()], true);
            heap.free(black_box(a));
            i += 1;
        });
    });
    group.bench_function("arena_unpredicted", |b| {
        let mut heap = ArenaAllocator::new(ArenaConfig::default());
        let mut i = 0usize;
        b.iter(|| {
            let a = heap.alloc(sizes[i % sizes.len()], false);
            heap.free(black_box(a));
            i += 1;
        });
    });
    group.finish();
}

criterion_group!(benches, sim_allocators);
criterion_main!(benches);
