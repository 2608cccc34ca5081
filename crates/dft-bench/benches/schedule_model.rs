//! Criterion benchmarks of the performance-model machinery itself (the
//! schedule evaluation must stay cheap enough for interactive sweeps).

use criterion::{criterion_group, criterion_main, Criterion};
use dft_hpc::event::pipelined_blocks;
use dft_hpc::machine::{ClusterSpec, MachineModel};
use dft_hpc::schedule::{scf_step, DftSystemSpec, SolverOptions};
use std::time::Duration;

fn bench_schedule(c: &mut Criterion) {
    let mut g = c.benchmark_group("perf_model");
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let sys = DftSystemSpec::new("TwinDislocMgY(C)", 74_164.0, 154_781.0, 1.7e9, 4, true, 8);
    let cluster = ClusterSpec::new(MachineModel::frontier(), 8000);
    let opts = SolverOptions::default();
    g.bench_function("scf_step_twindisloc_c", |b| {
        b.iter(|| scf_step(&sys, &opts, &cluster));
    });
    g.bench_function("pipelined_blocks_1000", |b| {
        b.iter(|| pipelined_blocks(1000, 1e-3, 8e-4, true));
    });
    g.finish();
}

criterion_group!(benches, bench_schedule);
criterion_main!(benches);
