//! Criterion bench for E1–E3: the three systolic designs versus the
//! sequential DP baseline on the same graphs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sdp_core::{Design1Array, Design2Array, Design3Array};
use sdp_fault::NoFaults;
use sdp_multistage::{generate, solve};
use sdp_trace::NullSink;

fn bench_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("design_arrays");
    group.sample_size(20);
    for &(stages, m) in &[(10usize, 4usize), (40, 8)] {
        let g = generate::random_single_source_sink(1, stages, m, 0, 100);
        group.bench_with_input(
            BenchmarkId::new("design1", format!("s{stages}_m{m}")),
            &g,
            |b, g| {
                let arr = Design1Array::new(m);
                b.iter(|| {
                    black_box(
                        arr.run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                            .unwrap()
                            .optimum(),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("design2", format!("s{stages}_m{m}")),
            &g,
            |b, g| {
                let arr = Design2Array::new(m);
                b.iter(|| {
                    black_box(
                        arr.run(g.matrix_string(), &mut NoFaults, &mut NullSink)
                            .unwrap()
                            .optimum(),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sequential_dp", format!("s{stages}_m{m}")),
            &g,
            |b, g| b.iter(|| black_box(solve::forward_dp(g).cost)),
        );
    }
    for &(n, m) in &[(10usize, 4usize), (40, 8)] {
        let g = generate::node_value_random(
            2,
            n,
            m,
            Box::new(sdp_multistage::node_value::AbsDiff),
            -50,
            50,
        );
        group.bench_with_input(
            BenchmarkId::new("design3", format!("n{n}_m{m}")),
            &g,
            |b, g| {
                let arr = Design3Array::new(m);
                b.iter(|| black_box(arr.run(g, &mut NoFaults, &mut NullSink).unwrap().cost));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_designs);
criterion_main!(benches);
