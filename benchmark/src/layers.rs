//! The layer replay: public functions of each crate timed alone, from the
//! benchmark's side, on the workload's own shapes and on the converged
//! `v_eff` / density of its serial solve. One layer per crate.
//!
//! Every call runs inside a span, so the trace file shows the ladder, and
//! every rate is paired with the analytic flop count the crates publish.
//! Bandwidth ratios are not reported: the host's last-level cache is larger
//! than any array here, so only computed flops are given, never bytes/s.

use crate::inputs::Problem;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Ctx, RANKS};
use dft_core::chebyshev::{
    chebyshev_filter_flops, chebyshev_filter_scratch, chfes, lanczos_bounds, random_subspace,
    CfScratch, ChfesOptions,
};
use dft_core::forces::compute_forces;
use dft_core::hamiltonian::KsHamiltonian;
use dft_core::scf::ScfResult;
use dft_core::xc::{evaluate_xc, Lda};
use dft_fem::field::NodalField;
use dft_fem::poisson::{solve_poisson, PoissonBc};
use dft_fem::space::FeSpace;
use dft_hpc::comm::{run_cluster, WirePrecision};
use dft_linalg::chol::cholesky_inverse;
use dft_linalg::eig::eigh;
use dft_linalg::gemm::{gemm, gemm_flops, Op};
use dft_linalg::iterative::LinearOperator;
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::C64;
use dft_parallel::checkpoint::{self, ReplicatedScfState};
use dft_parallel::operator::{ghost_tag_band, WireScalar};
use dft_parallel::{distributed_forces_profiled, DistHamiltonian, DistSpace, SharedComm};
use std::hint::black_box;
use std::time::Instant;

/// A named measurement with its unit, in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(crate::stats::valid_name(name), "bad metric name {name}");
        self.0.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// Seconds each replayed call may use up before its repetitions stop.
const PROBE_BUDGET_S: f64 = 0.15;
const PROBE_MIN_CALLS: usize = 3;
const PROBE_MAX_CALLS: usize = 200;

/// Time `f` at least [`PROBE_MIN_CALLS`] times and until the probe budget
/// is spent, each call in its own span; the median seconds of one call.
fn probe(tr: &mut Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < PROBE_MIN_CALLS
        || (t0.elapsed().as_secs_f64() < PROBE_BUDGET_S && samples.len() < PROBE_MAX_CALLS)
    {
        let (idx, ()) = tr.span(name, |_| f());
        samples.push(tr.spans()[idx].seconds());
    }
    median(&samples)
}

fn gflops(flops: u64, seconds: f64) -> f64 {
    flops as f64 / seconds / 1e9
}

/// Scalar types the replay runs at: `f64` for Γ-only problems, `C64` when
/// the workload samples k-points.
pub trait BenchScalar: WireScalar {
    /// The Bloch phase `e^{iθ}` (1 for the real type, which only ever sees Γ).
    fn bloch(theta: f64) -> Self;
}

impl BenchScalar for f64 {
    fn bloch(_theta: f64) -> Self {
        1.0
    }
}

impl BenchScalar for C64 {
    fn bloch(theta: f64) -> Self {
        C64::cis(theta)
    }
}

/// Bloch phases of the problem's last k-point.
fn phases<T: BenchScalar>(p: &Problem) -> [T; 3] {
    let k = p.kpts.last().expect("at least one k-point");
    let mut ph = [T::ONE; 3];
    for (d, slot) in ph.iter_mut().enumerate() {
        if p.grid.periodic && k.frac[d] != 0.0 {
            *slot = T::bloch(2.0 * std::f64::consts::PI * k.frac[d]);
        }
    }
    ph
}

/// One burst of independent FMA chains; returns the flops it performed.
/// AVX-512 form: twelve 8-lane accumulators, enough to hide the FMA latency
/// on both ports. The solver's own microkernels use the same intrinsics, so
/// this is the peak they are held against (auto-vectorised code tops out
/// at 256-bit vectors on this CPU family).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fma_burst_avx512(inner: usize) -> usize {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_set1_pd};
    let a = _mm512_set1_pd(black_box(1.000_000_1f64));
    let b = _mm512_set1_pd(black_box(1e-12f64));
    let mut acc = [_mm512_set1_pd(1.0); 12];
    for _ in 0..inner {
        for x in acc.iter_mut() {
            *x = _mm512_fmadd_pd(*x, a, b);
        }
    }
    black_box(acc);
    2 * 8 * 12 * inner
}

/// Portable form of the burst, left to the auto-vectoriser.
fn fma_burst_portable(inner: usize) -> usize {
    const N: usize = 96;
    let a = black_box(1.000_000_1f64);
    let b = black_box(1e-12f64);
    let mut acc = [1.0f64; N];
    for _ in 0..inner {
        for x in acc.iter_mut() {
            *x = x.mul_add(a, b);
        }
    }
    black_box(acc);
    2 * N * inner
}

/// One burst on the widest units this CPU has.
fn fma_burst(inner: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the run-time check above is the function's only
        // requirement, that this CPU has AVX-512F.
        return unsafe { fma_burst_avx512(inner) };
    }
    fma_burst_portable(inner)
}

/// The FMA probe: the best rate of `mul_add` bursts on one core over
/// `seconds`, timed in this same run so every "fraction of peak" has its
/// denominator from the same machine state.
pub fn fma_peak_gflops(seconds: f64) -> f64 {
    let mut best = 0.0f64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let flops = fma_burst(4096);
        best = best.max(flops as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Replay every layer on the context's problem. `serial` is the converged
/// profiled serial solve of the same problem; `fma_peak` the probe above.
pub fn replay(ctx: &Ctx, serial: &ScfResult, fma_peak: f64, tr: &mut Tracer, m: &mut Metrics) {
    if ctx.problem.gamma_only() {
        replay_as::<f64>(ctx, serial, fma_peak, tr, m);
    } else {
        replay_as::<C64>(ctx, serial, fma_peak, tr, m);
    }
}

fn replay_as<T: BenchScalar>(
    ctx: &Ctx,
    serial: &ScfResult,
    fma_peak: f64,
    tr: &mut Tracer,
    m: &mut Metrics,
) {
    let p = &ctx.problem;
    let space = &ctx.space;
    let (nd, n) = (space.ndofs(), p.cfg.n_states);
    let bf = p.cfg.block_size.min(n);
    let ph = phases::<T>(p);
    let density = &serial.density.values;
    let (_, psi) = tr.span("prepare", |_| random_subspace::<T>(nd, n, p.cfg.seed));

    // ---- dft-linalg: the subspace kernels at N x ndofs x N -------------
    let mut s = Matrix::<T>::zeros(n, n);
    let t = probe(tr, "linalg.gemm_tn", || {
        gemm(T::ONE, &psi, Op::ConjTrans, &psi, Op::None, T::ZERO, &mut s)
    });
    let tn = gflops(gemm_flops::<T>(n, n, nd), t);
    m.put("linalg.gemm_tn_gflops", tn, "GFLOPS");
    let q = Matrix::<T>::from_fn(n, n, |i, j| {
        T::from_f64(((i * 7 + j * 3) as f64 * 0.29).sin())
    });
    let mut out = Matrix::<T>::zeros(nd, n);
    let t = probe(tr, "linalg.gemm_nn", || {
        gemm(T::ONE, &psi, Op::None, &q, Op::None, T::ZERO, &mut out)
    });
    let nn = gflops(gemm_flops::<T>(nd, n, n), t);
    m.put("linalg.gemm_nn_gflops", nn, "GFLOPS");
    m.put("linalg.gemm_peak_frac", tn.max(nn) / fma_peak, "ratio");
    // S = Psi† Psi of an orthonormal block is the identity: shift it off
    // the trivial case with a Hermitian perturbation
    let mut herm = s.clone();
    for j in 0..n {
        for i in 0..n {
            herm[(i, j)] += q[(i, j)].scale(<T::Re as dft_linalg::scalar::Real>::from_f64(1e-3));
        }
    }
    herm.symmetrize_hermitian();
    let t = probe(tr, "linalg.cholesky_inverse", || {
        black_box(cholesky_inverse(&herm).expect("SPD overlap"));
    });
    m.put("linalg.cholesky_inverse_s", t, "s");
    let t = probe(tr, "linalg.eigh", || {
        black_box(eigh(&herm).expect("Hermitian eigensolve"));
    });
    m.put("linalg.eigh_s", t, "s");

    // ---- dft-fem: space build, stiffness apply, Poisson ----------------
    let t = probe(tr, "fem.space_build", || {
        black_box(FeSpace::new(p.grid.mesh()));
    });
    m.put("fem.space_build_s", t, "s");
    let x = psi.cols_range(0, bf);
    let mut y = Matrix::<T>::zeros(nd, bf);
    let t = probe(tr, "fem.apply_stiffness", || {
        space.apply_stiffness(&x, &mut y, ph)
    });
    m.put("fem.apply_stiffness_s_per_call", t, "s");
    m.put(
        "fem.apply_stiffness_gflops",
        gflops(space.stiffness_apply_flops::<T>(bf), t),
        "GFLOPS",
    );
    let x1 = Matrix::<f64>::from_fn(nd, 1, |i, _| (i as f64 * 0.37).sin());
    let mut y1 = Matrix::<f64>::zeros(nd, 1);
    let t = probe(tr, "fem.apply_stiffness_1col", || {
        space.apply_stiffness(&x1, &mut y1, [1.0; 3])
    });
    m.put(
        "fem.apply_stiffness_1col_gflops",
        gflops(space.stiffness_apply_flops::<f64>(1), t),
        "GFLOPS",
    );
    let rho_ion = p.system.ion_density(space);
    let rho_charge: Vec<f64> = rho_ion.iter().zip(density).map(|(i, e)| i - e).collect();
    let mut cg_iters = 0;
    let t = probe(tr, "fem.poisson_solve", || {
        let bc = if p.grid.periodic {
            PoissonBc::Periodic
        } else {
            PoissonBc::Dirichlet(&|_| 0.0)
        };
        let (phi, st) = solve_poisson(space, &rho_charge, bc, p.cfg.poisson_tol, 20000);
        cg_iters = st.iterations;
        black_box(phi);
    });
    m.put("fem.poisson_solve_s", t, "s");
    m.put("fem.poisson_cg_iters", cg_iters as f64, "count");

    // ---- dft-core: ChFES pieces at the converged v_eff -----------------
    let h = KsHamiltonian::<T>::new(space, &serial.v_eff, ph);
    let mut bounds = (0.0, 1.0);
    let t = probe(tr, "core.lanczos_bounds", || {
        bounds = lanczos_bounds(&h, 10, p.cfg.seed + 1000);
    });
    m.put("core.lanczos_bounds_s", t, "s");
    let (tmin, tmax) = bounds;
    let window = (tmin - 1.0, tmin + 0.1 * (tmax - tmin), tmax);
    let mut scratch = CfScratch::new();
    let mut block = Matrix::<T>::zeros(nd, bf);
    let mut cf_flops = 0;
    // one CF call as ChFES makes it: all N states, B_f columns at a time
    let t = probe(tr, "core.chebyshev_filter", || {
        cf_flops = 0;
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + bf).min(n);
            if block.ncols() != j1 - j0 {
                block = Matrix::zeros(nd, j1 - j0);
            }
            block.copy_cols_from(&psi, j0);
            let (a0, a, b) = window;
            chebyshev_filter_scratch(&h, &mut block, p.cfg.cheb_degree, a, b, a0, &mut scratch);
            cf_flops += chebyshev_filter_flops(&h, j1 - j0, p.cfg.cheb_degree);
            j0 = j1;
        }
    });
    m.put("core.cf_s_per_call", t, "s");
    m.put("core.cf_gflops", gflops(cf_flops, t), "GFLOPS");
    let opts = ChfesOptions {
        cheb_degree: p.cfg.cheb_degree,
        block_size: p.cfg.block_size,
        mixed_precision: p.cfg.mixed_precision,
    };
    let mut work = psi.clone();
    let t = probe(tr, "core.chfes_cycle", || {
        black_box(chfes(&h, &mut work, window, &opts));
    });
    m.put("core.chfes_cycle_s", t, "s");
    let t = probe(tr, "core.xc_eval", || {
        let rho = NodalField::from_values(space, density.clone());
        black_box(evaluate_xc(space, &rho, &Lda).energy);
    });
    m.put("core.xc_eval_s", t, "s");
    let t = probe(tr, "core.forces", || {
        black_box(compute_forces(space, &p.system, density).expect("force Poisson converges"));
    });
    m.put("core.forces_s", t, "s");

    // ---- dft-hpc: the runtime alone, 2 ranks ---------------------------
    let t = probe(tr, "hpc.cluster_spawn", || {
        black_box(run_cluster(RANKS, |comm| comm.rank()));
    });
    m.put("hpc.cluster_spawn_us", t * 1e6, "us");
    let nn_len = n * n * T::COMPONENTS;
    let (_, per_rank) = tr.span("hpc.allreduce_nn", |_| {
        run_cluster(RANKS, |comm| {
            let mut buf = vec![1.0f64; nn_len];
            let mut samples = Vec::with_capacity(32);
            for _ in 0..32 {
                let t = Instant::now();
                comm.allreduce_sum_f64(&mut buf, WirePrecision::Fp64)
                    .expect("fault-free allreduce");
                samples.push(t.elapsed().as_secs_f64());
                buf.fill(1.0);
            }
            median(&samples)
        })
        .0
    });
    m.put("hpc.allreduce_nn_us", per_rank[0] * 1e6, "us");
    let ghost_len = dft_parallel::Decomposition::new(space, 0, RANKS)
        .send_to
        .iter()
        .map(|(_, rows)| rows.len())
        .sum::<usize>()
        .max(1)
        * bf
        * T::COMPONENTS;
    let tag = ghost_tag_band().0;
    let (_, per_rank) = tr.span("hpc.p2p_ghost", |_| {
        run_cluster(RANKS, |comm| {
            let payload = vec![0.5f64; ghost_len];
            let peer = 1 - comm.rank();
            let mut samples = Vec::with_capacity(32);
            for _ in 0..32 {
                let t = Instant::now();
                if comm.rank() == 0 {
                    comm.send_f64(peer, tag, &payload, WirePrecision::Fp64)
                        .expect("send");
                    black_box(comm.recv_f64(peer, tag, WirePrecision::Fp64).expect("recv"));
                } else {
                    black_box(comm.recv_f64(peer, tag, WirePrecision::Fp64).expect("recv"));
                    comm.send_f64(peer, tag, &payload, WirePrecision::Fp64)
                        .expect("send");
                }
                samples.push(t.elapsed().as_secs_f64() / 2.0); // one way
            }
            median(&samples)
        })
        .0
    });
    m.put("hpc.p2p_ghost_us", per_rank[0] * 1e6, "us");
    m.put(
        "hpc.p2p_mb_s",
        (ghost_len * 8) as f64 / per_rank[0] / 1e6,
        "MB/s",
    );

    // ---- dft-parallel: distributed apply, checkpoint codec, forces -----
    let h_flops = h.apply_flops(bf);
    let dist_apply = |applies: usize| {
        run_cluster(RANKS, |comm| {
            let dist = DistSpace::new(space, comm.rank(), comm.size());
            let shared = SharedComm::new(comm);
            let dh =
                DistHamiltonian::<T>::new(&dist, &shared, &serial.v_eff, ph, WirePrecision::Fp64);
            let rows = dist.dec.n_owned();
            let x = Matrix::<T>::from_fn(rows, bf, |i, j| {
                T::from_f64(((dist.dec.owned[i] as usize * 7 + j * 3) as f64 * 0.29).sin())
            });
            let mut y = Matrix::<T>::zeros(rows, bf);
            let mut samples = Vec::with_capacity(applies);
            for _ in 0..applies {
                let t = Instant::now();
                dh.apply(&x, &mut y);
                samples.push(t.elapsed().as_secs_f64());
            }
            black_box(y);
            median(&samples)
        })
    };
    let (_, (per_rank, _)) = tr.span("parallel.dist_apply", |_| dist_apply(12));
    let t = per_rank.iter().copied().fold(0.0, f64::max);
    m.put("parallel.dist_apply_s_per_call", t, "s");
    m.put("parallel.dist_apply_gflops", gflops(h_flops, t), "GFLOPS");
    // a cluster that does one apply and nothing else: its byte total IS
    // the ghost exchange of one apply
    let (_, stats) = dist_apply(1);
    m.put(
        "parallel.ghost_bytes_per_apply",
        stats.snapshot().0 as f64,
        "B",
    );

    let root = ctx.tmp.join("ckpt-probe");
    let _ = std::fs::remove_dir_all(&root);
    let state = ReplicatedScfState {
        iteration: 1,
        rho_in: density.clone(),
        mu: serial.mu,
        mixer_history: vec![(density.clone(), density.clone()); p.cfg.anderson_depth],
        filter_windows: vec![Some((window.0, window.1)); p.kpts.len()],
        residual_history: serial.residual_history.clone(),
    };
    let decs: Vec<_> = (0..RANKS)
        .map(|r| dft_parallel::Decomposition::new(space, r, RANKS))
        .collect();
    let shards: Vec<Vec<Matrix<T>>> = decs
        .iter()
        .map(|dec| {
            let shard =
                Matrix::<T>::from_fn(dec.n_owned(), n, |i, j| psi[(dec.owned[i] as usize, j)]);
            vec![shard; p.kpts.len()]
        })
        .collect();
    let mut ckpt_bytes = 0;
    // as the SCF driver does it: every rank writes its shard, a barrier,
    // then rank 0 marks the snapshot complete
    let t = probe(tr, "parallel.ckpt_write", || {
        let (written, _) = run_cluster(RANKS, |comm| {
            let r = comm.rank();
            let bytes =
                checkpoint::write_rank(&root, r, RANKS, nd, &state, &decs[r].owned, &shards[r])
                    .expect("write the rank's checkpoint shard");
            comm.barrier().expect("fault-free barrier");
            if r == 0 {
                checkpoint::finalize(&root, state.iteration, 2).expect("finalize the checkpoint");
            }
            bytes
        });
        ckpt_bytes = written.iter().sum();
    });
    m.put("parallel.ckpt_write_s", t, "s");
    m.put("parallel.ckpt_bytes", ckpt_bytes as f64, "B");
    let t = probe(tr, "parallel.ckpt_load", || {
        black_box(
            checkpoint::load::<T>(&root, state.iteration)
                .expect("load the checkpoint")
                .state
                .iteration,
        );
    });
    m.put("parallel.ckpt_load_s", t, "s");
    let _ = std::fs::remove_dir_all(&root);
    let t = probe(tr, "parallel.forces", || {
        let (f, _) = run_cluster(RANKS, |comm| {
            distributed_forces_profiled(comm, space, &p.system, density, None).map(|(f, _)| f[0][0])
        });
        black_box(
            f.into_iter()
                .collect::<Result<Vec<_>, _>>()
                .expect("distributed forces"),
        );
    });
    m.put("parallel.forces_s", t, "s");

    // ---- dft-serve: the cache key of one job spec (the burst only) -----
    let t = match ctx.specs.first() {
        Some(spec) => probe(tr, "serve.cache_key", || {
            black_box(dft_serve::cache_key(black_box(spec)));
        }),
        None => 0.0,
    };
    m.put("serve.cache_key_us", t * 1e6, "us");
}
