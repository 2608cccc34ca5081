//! Criterion microbenchmarks of the hot computational kernels — the real
//! CPU counterparts of the paper's GPU kernels (Sec. 5.4.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dft_core::chebyshev::{
    chebyshev_filter_flops, chebyshev_filter_scratch, chfes, lanczos_bounds, random_subspace,
    CfScratch, ChfesOptions,
};
use dft_core::hamiltonian::KsHamiltonian;
use dft_core::threads::with_threads;
use dft_fem::mesh::Mesh3d;
use dft_fem::space::{FeSpace, COL_BLOCK};
use dft_linalg::batched::{batched_gemm, BatchLayout};
use dft_linalg::gemm::Shape::{LowerC, UpperB};
use dft_linalg::gemm::{gemm, gemm_shaped, Op};
use dft_linalg::iterative::LinearOperator;
use dft_linalg::matrix::Matrix;
use dft_mlxc::MlxcModel;
use std::hint::black_box;
use std::time::Duration;

fn quick(c: &mut Criterion) -> &mut Criterion {
    c
}

/// The paper's dense cell-matrix operator: per-cell dense stiffness
/// matrices applied with one strided-batched GEMM per block, then
/// assembled — the "before" of the sum-factorized sweep the solver runs.
struct CellDenseOperator {
    nloc: usize,
    /// Packed per-cell matrices, `nloc*nloc` each, cell-major.
    cell_matrices: Vec<f64>,
}

impl CellDenseOperator {
    /// Every cell of `space` gets its own dense `K_c`.
    fn stiffness(space: &FeSpace) -> Self {
        let nloc = space.nloc();
        let mut cell_matrices = Vec::with_capacity(space.cells().len() * nloc * nloc);
        for cell in space.cells() {
            cell_matrices.extend_from_slice(space.dense_cell_stiffness(cell.h).as_slice());
        }
        Self {
            nloc,
            cell_matrices,
        }
    }

    /// `Y = K X` on DoF vectors: gather -> batched GEMM -> scatter-add.
    fn apply_block(&self, space: &FeSpace, x: &Matrix<f64>, y: &mut Matrix<f64>) {
        let nloc = self.nloc;
        let ncells = space.cells().len();
        let ncols = x.ncols();
        let block = nloc * ncols;
        let mut xb = vec![0.0; ncells * block];
        for (cell, xc) in space.cells().iter().zip(xb.chunks_exact_mut(block)) {
            for (j, dst) in xc.chunks_exact_mut(nloc).enumerate() {
                space.gather_cell_dofs(cell, x.col(j), [1.0; 3], dst);
            }
        }
        let mut yb = vec![0.0; ncells * block];
        let layout = BatchLayout::packed(nloc, ncols, nloc, ncells);
        batched_gemm(layout, 1.0, &self.cell_matrices, &xb, 0.0, &mut yb);
        y.as_mut_slice().fill(0.0);
        for (cell, yc) in space.cells().iter().zip(yb.chunks_exact(block)) {
            for (j, src) in yc.chunks_exact(nloc).enumerate() {
                space.scatter_add_cell_dofs(cell, src, [1.0; 3], y.col_mut(j));
            }
        }
    }
}

/// The paper's headline kernel: strided-batched dense cell GEMM
/// (`xGEMMStridedBatched` analogue), `nloc x nloc` cell matrices times
/// `nloc x B_f` wavefunction blocks.
fn bench_batched_cell_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("batched_cell_gemm");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    for (p, bf, cells) in [(4usize, 32usize, 64usize), (6, 32, 16), (6, 128, 16)] {
        let nloc = (p + 1).pow(3);
        let a: Vec<f64> = (0..nloc * nloc * cells)
            .map(|i| ((i * 13) as f64 * 0.1).sin())
            .collect();
        let b: Vec<f64> = (0..nloc * bf * cells)
            .map(|i| ((i * 7) as f64 * 0.2).cos())
            .collect();
        let mut out = vec![0.0; nloc * bf * cells];
        let layout = BatchLayout::packed(nloc, bf, nloc, cells);
        g.throughput(Throughput::Elements(layout.flops::<f64>()));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("p{p}_bf{bf}_cells{cells}")),
            &layout,
            |bch, &layout| {
                bch.iter(|| batched_gemm(layout, 1.0, &a, &b, 0.0, &mut out));
            },
        );
    }
    g.finish();
}

/// Matrix-free sum-factorized Hamiltonian apply vs the dense-cell batched
/// path (the paper's kernel choice trade-off).
fn bench_hamiltonian_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("hamiltonian_apply");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let space = FeSpace::new(Mesh3d::cube(4, 10.0, 4));
    let v: Vec<f64> = (0..space.nnodes())
        .map(|i| (i as f64 * 0.01).sin())
        .collect();
    let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
    let x = Matrix::from_fn(h.dim(), 16, |i, j| ((i + 31 * j) as f64 * 0.23).sin());
    let mut y = Matrix::zeros(h.dim(), 16);
    g.bench_function("sumfac_p4_16cols", |b| {
        b.iter(|| h.apply(&x, &mut y));
    });
    let dense = CellDenseOperator::stiffness(&space);
    g.bench_function("dense_cell_stiffness_p4_16cols", |b| {
        b.iter(|| dense.apply_block(&space, &x, &mut y));
    });
    g.finish();
}

/// The sum-factorized cell kernel alone, one cell's 8-lane block on the
/// calling thread: throughput is FLOPs per second *per thread* (the sweep
/// runs one such stream per rayon worker).
fn bench_cell_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("cell_kernel");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    for p in [3usize, 4, 5] {
        let space = FeSpace::new(Mesh3d::periodic_cube(2, 10.0, p));
        let h = space.cells()[0].h;
        let len = space.nloc() * COL_BLOCK;
        let x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y = vec![0.0; len];
        let flops = space.stiffness_apply_flops::<f64>(COL_BLOCK) / space.cells().len() as u64;
        g.throughput(Throughput::Elements(flops));
        g.bench_function(BenchmarkId::from_parameter(format!("p{p}_f64")), |b| {
            b.iter(|| space.cell_stiffness_apply_block(h, black_box(&x), &mut y));
        });
    }
    g.finish();
}

/// ChFES building blocks: CF filter sweep and the CholGS/RR dense algebra.
fn bench_chfes_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("chfes_steps");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let space = FeSpace::new(Mesh3d::cube(3, 10.0, 4));
    let v: Vec<f64> = (0..space.nnodes())
        .map(|i| {
            let c = space.node_coord(i);
            0.5 * ((c[0] - 5.0).powi(2) + (c[1] - 5.0).powi(2) + (c[2] - 5.0).powi(2))
        })
        .collect();
    let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
    let (tmin, tmax) = lanczos_bounds(&h, 10, 1);
    let psi0 = random_subspace::<f64>(h.dim(), 8, 3);
    g.bench_function("cf_degree20_8states", |b| {
        b.iter(|| {
            let mut psi = psi0.clone();
            chebyshev_filter_scratch(
                &h,
                &mut psi,
                20,
                tmin + 0.2 * (tmax - tmin),
                tmax,
                tmin - 1.0,
                &mut CfScratch::new(),
            );
        });
    });
    // CholGS on a tall block
    let m = 4000;
    let n = 48;
    let psi = Matrix::from_fn(m, n, |i, j| ((i * 3 + j * 17 + i * j) as f64 * 0.13).sin());
    // the route the cycle ships: S as its lower triangle, mirrored, and
    // Psi L^{-dagger} with L^{-dagger} upper triangular
    g.bench_function("cholgs_4000x48", |b| {
        b.iter(|| {
            let mut s = Matrix::zeros(n, n);
            gemm_shaped(
                1.0,
                &psi,
                Op::ConjTrans,
                &psi,
                Op::None,
                0.0,
                &mut s,
                LowerC(0),
            );
            s.hermitian_from_lower();
            let linv_h = dft_linalg::cholesky_inverse(&s).unwrap().adjoint();
            let mut out = Matrix::zeros(m, n);
            gemm_shaped(
                1.0,
                &psi,
                Op::None,
                &linv_h,
                Op::None,
                0.0,
                &mut out,
                UpperB(0),
            );
            out
        });
    });
    g.bench_function("rr_diag_48", |b| {
        let hm = Matrix::from_fn(n, n, |i, j| ((i * j) as f64 * 0.21).sin());
        b.iter(|| {
            let mut a = hm.clone();
            a.symmetrize_hermitian();
            dft_linalg::eigh(&a).unwrap()
        });
    });
    // one ChFES cycle at `scf-wide`'s shape (periodic 4^3 cells, p = 5,
    // 8,000 DoF, 96 columns, degree 30, B_f = 64): CF filters twelve
    // 8-column tasks, one thread carrying each through all 30 steps, under
    // thread caps 1 and 2
    {
        let space = FeSpace::new(Mesh3d::periodic_cube(4, 10.0, 5));
        let v: Vec<f64> = (0..space.nnodes())
            .map(|i| 0.3 * (i as f64 * 0.05).sin())
            .collect();
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let (tmin, tmax) = lanczos_bounds(&h, 10, 1);
        let psi0 = random_subspace::<f64>(h.dim(), 96, 3);
        let opts = ChfesOptions {
            cheb_degree: 30,
            block_size: 64,
            mixed_precision: false,
        };
        let window = (tmin - 1.0, tmin + 0.1 * (tmax - tmin), tmax);
        for threads in [1, 2] {
            let id = BenchmarkId::new("chfes_cycle_96cols_p5", format!("{threads}threads"));
            g.bench_function(id, |b| {
                b.iter(|| {
                    let mut psi = psi0.clone();
                    with_threads(threads, || chfes(&h, &mut psi, window, &opts))
                });
            });
        }
    }
    // the subspace half's four GEMMs at `scf-wide`'s shape (8,000 DoF, 96
    // columns) as the cycle runs them, under thread caps 1 and 2: CholGS-S
    // (the lower triangle of Psi†Psi, mirrored), CholGS-O (Psi L^{-dagger},
    // L^{-dagger} upper triangular), the RR-P product (the lower triangle of
    // Psi†(H Psi), H Psi given) and RR-SR (Psi Q, Q dense)
    {
        let space = FeSpace::new(Mesh3d::periodic_cube(4, 10.0, 5));
        let v: Vec<f64> = (0..space.nnodes())
            .map(|i| 0.3 * (i as f64 * 0.05).sin())
            .collect();
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let (nd, n) = (h.dim(), 96);
        let psi = random_subspace::<f64>(nd, n, 3);
        let mut hpsi = Matrix::zeros(nd, n);
        h.apply(&psi, &mut hpsi);
        let mut s = Matrix::zeros(n, n);
        gemm(1.0, &psi, Op::ConjTrans, &psi, Op::None, 0.0, &mut s);
        s.symmetrize_hermitian();
        let linv_h = dft_linalg::cholesky_inverse(&s).unwrap().adjoint();
        let q = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) as f64 * 0.11).sin());
        let mut small = Matrix::zeros(n, n);
        let mut tall = Matrix::zeros(nd, n);
        for threads in [1, 2] {
            let id = |step: &str| {
                BenchmarkId::new(
                    format!("subspace_96cols_p5/{step}"),
                    format!("{threads}threads"),
                )
            };
            g.bench_function(id("S"), |b| {
                b.iter(|| {
                    with_threads(threads, || {
                        let lower = LowerC(0);
                        gemm_shaped(
                            1.0,
                            &psi,
                            Op::ConjTrans,
                            &psi,
                            Op::None,
                            0.0,
                            &mut small,
                            lower,
                        );
                        small.hermitian_from_lower();
                    })
                });
            });
            g.bench_function(id("O"), |b| {
                b.iter(|| {
                    with_threads(threads, || {
                        let upper = UpperB(0);
                        gemm_shaped(
                            1.0,
                            &psi,
                            Op::None,
                            &linv_h,
                            Op::None,
                            0.0,
                            &mut tall,
                            upper,
                        );
                    })
                });
            });
            g.bench_function(id("Hp"), |b| {
                b.iter(|| {
                    with_threads(threads, || {
                        let lower = LowerC(0);
                        gemm_shaped(
                            1.0,
                            &psi,
                            Op::ConjTrans,
                            &hpsi,
                            Op::None,
                            0.0,
                            &mut small,
                            lower,
                        );
                        small.hermitian_from_lower();
                    })
                });
            });
            g.bench_function(id("SR"), |b| {
                b.iter(|| {
                    with_threads(threads, || {
                        gemm(1.0, &psi, Op::None, &q, Op::None, 0.0, &mut tall);
                    })
                });
            });
        }
    }
    // the filter at the shape the solver runs it: 8,000 DoF (periodic 4^3
    // cells, p = 5), one B_f = 64 block (eight lane-panel tasks, as the CF
    // phase runs them), degree 30 (last in the group: the throughput it
    // sets would stick to later benches)
    {
        let space = FeSpace::new(Mesh3d::periodic_cube(4, 10.0, 5));
        let v: Vec<f64> = (0..space.nnodes())
            .map(|i| 0.3 * (i as f64 * 0.05).sin())
            .collect();
        let h = KsHamiltonian::<f64>::new(&space, &v, [1.0; 3]);
        let (tmin, tmax) = lanczos_bounds(&h, 10, 1);
        let psi0 = random_subspace::<f64>(h.dim(), 64, 3);
        let mut psi = psi0.clone();
        let mut scratch = CfScratch::new();
        g.throughput(Throughput::Elements(chebyshev_filter_flops(&h, 64, 30)));
        g.bench_function("cf_degree30_64cols_p5", |b| {
            b.iter(|| {
                psi.as_mut_slice().copy_from_slice(psi0.as_slice());
                let (a, a0) = (tmin + 0.2 * (tmax - tmin), tmin - 1.0);
                chebyshev_filter_scratch(&h, &mut psi, 30, a, tmax, a0, &mut scratch);
            });
        });
    }
    g.finish();
}

/// Blocks narrower than a thread's worth of columns: one [`COL_BLOCK`]
/// (or less) of states is a single column block, so the sweep cuts the rows
/// into slabs to use a second thread — the shape of the 4-state
/// nanoparticle SCF and of every one-column Lanczos / Poisson apply. A
/// block of `cb < COL_BLOCK` columns shares each kernel call with the next
/// cells of equal size: on the periodic cube (one cell size) 1, 2, 3 and 4
/// columns run 8, 4, 2 and 2 cells per call; on the Dirichlet cubes of 7
/// cells per axis (non-dyadic sizes, so 244 of 342 neighbours differ) the
/// runs break early. `cube(7, 10.0, 4)` is the `scf-poisson` mesh.
fn bench_narrow_blocks(c: &mut Criterion) {
    let mut g = c.benchmark_group("narrow_blocks");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let dirichlet = FeSpace::new(Mesh3d::cube(7, 12.0, 4));
    let poisson = FeSpace::new(Mesh3d::cube(7, 10.0, 4));
    let periodic = FeSpace::new(Mesh3d::periodic_cube(4, 10.0, 5));
    for (mesh, space, cols) in [
        ("cube7_l12", &dirichlet, 4),
        ("cube7_l12", &dirichlet, 1),
        ("cube7_l10", &poisson, 1),
        ("periodic4", &periodic, 4),
        ("periodic4", &periodic, 3),
        ("periodic4", &periodic, 2),
        ("periodic4", &periodic, 1),
    ] {
        let x = Matrix::from_fn(space.ndofs(), cols, |i, j| {
            ((i + 31 * j) as f64 * 0.23).sin()
        });
        let mut y = Matrix::zeros(space.ndofs(), cols);
        g.throughput(Throughput::Elements(
            space.stiffness_apply_flops::<f64>(cols),
        ));
        let id = format!("apply_stiffness_{mesh}_{}x{cols}", space.ndofs());
        g.bench_function(BenchmarkId::from_parameter(id), |b| {
            b.iter(|| space.apply_stiffness(black_box(&x), &mut y, [1.0; 3]));
        });
    }
    // last in its group: the throughput it sets would stick to later benches
    let v: Vec<f64> = (0..dirichlet.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let h = KsHamiltonian::<f64>::new(&dirichlet, &v, [1.0; 3]);
    let (tmin, tmax) = lanczos_bounds(&h, 10, 1);
    let psi0 = random_subspace::<f64>(h.dim(), 4, 3);
    let mut psi = psi0.clone();
    let mut scratch = CfScratch::new();
    g.throughput(Throughput::Elements(chebyshev_filter_flops(&h, 4, 30)));
    g.bench_function("cf_degree30_4cols_p4", |b| {
        b.iter(|| {
            psi.as_mut_slice().copy_from_slice(psi0.as_slice());
            let (a, a0) = (tmin + 0.2 * (tmax - tmin), tmin - 1.0);
            chebyshev_filter_scratch(&h, &mut psi, 30, a, tmax, a0, &mut scratch);
        });
    });
    g.finish();
}

/// MLXC inference: pointwise functional evaluation with input gradients.
fn bench_mlxc_inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("mlxc");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g.sample_size(10);
    let model = MlxcModel::new(1);
    let points: Vec<(f64, f64)> = (0..512)
        .map(|i| (0.1 + 0.01 * i as f64, 0.05 * i as f64))
        .collect();
    g.throughput(Throughput::Elements(points.len() as u64));
    g.bench_function("eval_point_paper_arch_512pts", |b| {
        b.iter(|| {
            points
                .iter()
                .map(|&(r, gn)| model.eval_point(r, 0.0, gn).e)
                .sum::<f64>()
        });
    });
    g.finish();
}

fn all(c: &mut Criterion) {
    bench_batched_cell_gemm(quick(c));
    bench_hamiltonian_apply(c);
    bench_cell_kernel(c);
    bench_chfes_steps(c);
    bench_narrow_blocks(c);
    bench_mlxc_inference(c);
}

criterion_group!(benches, all);
criterion_main!(benches);
