//! Oracle tests for the distributed solver: every distributed kernel is
//! checked against its serial counterpart on the same golden systems as
//! `dft-fem/tests/golden_stiffness.rs` (periodic, Bloch-phase, Dirichlet),
//! plus run-to-run bit-determinism and SCF energy parity.

use dft_core::chebyshev::{chebyshev_filter_scratch, lanczos_bounds, CfScratch};
use dft_core::cluster::grid::GridShape;
use dft_core::cluster::operator::{DistHamiltonian, DistSpace, SharedComm, WireScalar};
use dft_core::cluster::scf::{distributed_scf, DistScfConfig};
use dft_core::hamiltonian::{HamOperator, KsHamiltonian};
use dft_core::scf::{scf, KPoint, ScfConfig};
use dft_core::system::{Atom, AtomKind, AtomicSystem};
use dft_core::xc::Lda;
use dft_fem::mesh::Mesh3d;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{run_cluster, WirePrecision};
use dft_hpc::profile::ScfProfile;
use dft_linalg::iterative::{LinearOperator, Recurrence};
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar, C64};

mod common;
use common::assert_ranks_agree;

/// Restrict the rows of a replicated full-DoF block to a rank's owned rows.
fn restrict_rows<T: Scalar>(dist: &DistSpace<'_>, full: &Matrix<T>) -> Matrix<T> {
    let mut local = Matrix::<T>::zeros(dist.dec.n_owned(), full.ncols());
    for j in 0..full.ncols() {
        let src = full.col(j);
        for (l, dst) in local.col_mut(j).iter_mut().enumerate() {
            *dst = src[dist.dec.owned[l] as usize];
        }
    }
    local
}

/// Max |y_local - y_ref[owned rows]| over all owned rows and columns.
fn max_err_vs_owned<T: Scalar>(dist: &DistSpace<'_>, local: &Matrix<T>, full: &Matrix<T>) -> f64 {
    let mut err: f64 = 0.0;
    for j in 0..full.ncols() {
        let (lc, fc) = (local.col(j), full.col(j));
        for (l, &v) in lc.iter().enumerate() {
            let d = dist.dec.owned[l] as usize;
            err = err.max((v - fc[d]).abs_sq().to_f64().sqrt());
        }
    }
    err
}

/// Run the distributed Hamiltonian apply at 1, 2 and 4 ranks and compare
/// every rank's owned rows against the serial `KsHamiltonian::apply`: to
/// 1e-12 across ranks (the fold-back adds partial sums in a different
/// order), and bit for bit at one rank, where the slab is the mesh and both
/// run the same sweep over the same cells.
fn check_apply_oracle<T: WireScalar>(space: &FeSpace, x: &Matrix<T>, phases: [T; 3]) {
    let v_eff: Vec<f64> = (0..space.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let mut y_ref = Matrix::<T>::zeros(x.nrows(), x.ncols());
    KsHamiltonian::<T>::new(space, &v_eff, phases).apply(x, &mut y_ref);
    for nranks in [1, 2, 4] {
        let (errs, _) = run_cluster(nranks, |comm| {
            let dist = DistSpace::new(space, comm.rank(), comm.size());
            let shared = SharedComm::new(comm);
            let h = DistHamiltonian::<T>::new(&dist, &shared, &v_eff, phases, WirePrecision::Fp64);
            let x_local = restrict_rows(&dist, x);
            let mut y_local = Matrix::<T>::zeros(dist.dec.n_owned(), x.ncols());
            h.apply(&x_local, &mut y_local);
            if nranks == 1 {
                assert!(y_local.as_slice() == y_ref.as_slice(), "1 rank != serial");
            }
            max_err_vs_owned(&dist, &y_local, &y_ref)
        });
        for (r, e) in errs.iter().enumerate() {
            assert!(e <= &1e-12, "rank {r}/{nranks}: apply error {e:.3e}");
        }
    }
}

// 9 columns: one full 8-lane block of the cell kernel plus a ragged one

#[test]
fn distributed_apply_matches_serial_periodic() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let x = Matrix::<f64>::from_fn(space.ndofs(), 9, |i, j| {
        ((i * 7 + j * 29) as f64 * 0.37).sin()
    });
    check_apply_oracle(&space, &x, [1.0; 3]);
}

#[test]
fn distributed_apply_matches_serial_bloch() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let phases = [C64::cis(0.7), C64::cis(-0.3), C64::ONE];
    let x = Matrix::<C64>::from_fn(space.ndofs(), 9, |i, j| {
        C64::new(
            ((i * 5 + j * 3) as f64 * 0.3).sin(),
            ((i * 11 + j) as f64 * 0.2).cos(),
        )
    });
    check_apply_oracle(&space, &x, phases);
}

#[test]
fn distributed_apply_matches_serial_dirichlet() {
    let space = FeSpace::new(Mesh3d::cube(2, 4.0, 3));
    let x = Matrix::<f64>::from_fn(space.ndofs(), 9, |i, j| {
        ((i * 13 + j * 5) as f64 * 0.19).cos()
    });
    check_apply_oracle(&space, &x, [1.0; 3]);
}

/// The operator's own apply only: its `recurrence_step` is the trait's
/// provided default (apply, then the update column by column).
struct ApplyOnly<'a>(&'a dyn LinearOperator<f64>);

impl LinearOperator<f64> for ApplyOnly<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn apply(&self, x: &Matrix<f64>, y: &mut Matrix<f64>) {
        self.0.apply(x, y);
    }
}

/// The Hamiltonian (fused `M^{-1/2}` gather scale, output transform read
/// from the extended result) at one rank is the serial `KsHamiltonian` bit
/// for bit, one apply and a whole degree-30 filter; on one and two ranks
/// the recurrence step folded into the read-off has the bits of the
/// provided default (apply, then update), first step and later steps; and
/// on two ranks a column has the same bits whether it is applied alone or
/// inside a 7-, 8-, 9- or 17-column block, at whatever offset — the blocked
/// kernel's per-lane arithmetic does not depend on the lane or the block,
/// which is what lets band-split grids and restarts regroup columns.
#[test]
fn hamiltonian_apply_is_serial_at_one_rank_and_column_grouping_independent() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let v_eff: Vec<f64> = (0..space.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let x = Matrix::<f64>::from_fn(space.ndofs(), 17, |i, j| {
        ((i * 3 + j * 17) as f64 * 0.23).sin()
    });
    let h_ref = KsHamiltonian::<f64>::new(&space, &v_eff, [1.0; 3]);
    let mut y_ref = Matrix::<f64>::zeros(space.ndofs(), 17);
    h_ref.apply(&x, &mut y_ref);
    let (tmin, tmax) = lanczos_bounds(&h_ref, 10, 7);
    let (a, b, a0) = (tmin + 0.2 * (tmax - tmin), tmax, tmin - 1.0);
    let mut f_ref = x.clone();
    chebyshev_filter_scratch(&h_ref, &mut f_ref, 30, a, b, a0, &mut CfScratch::new());

    for nranks in [1, 2] {
        run_cluster(nranks, |comm| {
            let dist = DistSpace::new(&space, comm.rank(), comm.size());
            let shared = SharedComm::new(comm);
            let h =
                DistHamiltonian::<f64>::new(&dist, &shared, &v_eff, [1.0; 3], WirePrecision::Fp64);
            let x_local = restrict_rows(&dist, &x);
            let rows = dist.dec.n_owned();
            let mut y_full = Matrix::<f64>::zeros(rows, 17);
            h.apply(&x_local, &mut y_full);
            if nranks == 1 {
                assert!(y_full.as_slice() == y_ref.as_slice(), "1 rank != serial");
                let mut f = x_local.clone();
                chebyshev_filter_scratch(&h, &mut f, 30, a, b, a0, &mut CfScratch::new());
                assert!(f.as_slice() == f_ref.as_slice(), "1-rank filter != serial");
            }
            let k = Recurrence {
                c: 0.7,
                alpha: -1.3,
                beta: 0.45,
            };
            for prev in [None, Some(&y_full)] {
                let mut fused = Matrix::<f64>::zeros(rows, 17);
                let mut default = Matrix::<f64>::from_fn(rows, 17, |i, j| (i + j) as f64);
                h.recurrence_step(&x_local, prev, k, &mut fused);
                ApplyOnly(&h).recurrence_step(&x_local, prev, k, &mut default);
                assert!(
                    fused.as_slice() == default.as_slice(),
                    "{nranks} ranks: folded recurrence step != apply + update"
                );
            }
            // columns first..first+width of the block, applied on their own
            for (first, width) in [(0, 1), (11, 1), (3, 7), (5, 8), (2, 9)] {
                let span = first * rows..(first + width) * rows;
                let xw = Matrix::from_vec(rows, width, x_local.as_slice()[span.clone()].to_vec());
                let mut yw = Matrix::<f64>::zeros(rows, width);
                h.apply(&xw, &mut yw);
                assert!(
                    yw.as_slice() == &y_full.as_slice()[span],
                    "{nranks} ranks: columns {first}..+{width} alone differ from the 17-column apply"
                );
            }
        });
    }
}

/// The one distributed filter route — `chebyshev_filter_scratch` on a
/// `DistHamiltonian`, column block by column block on one reused scratch,
/// as the CF phase runs it — against the blocking recurrence on the whole
/// block: bit for bit at 1, 2 and 4 ranks on the FP64 wire (what lets
/// `B_f` and band splits regroup columns). The serial `KsHamiltonian`'s
/// lane-panel route regroups the same way: 2-column blocks through one
/// scratch equal its whole-block filter bit for bit. Against the serial
/// filter the ranks are bit for bit at one rank and within 1e-12 across
/// ranks, where the fold-back adds partial sums in a different order.
#[test]
fn distributed_chebyshev_filter_matches_serial() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let v_eff: Vec<f64> = (0..space.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let h_ref = KsHamiltonian::<f64>::new(&space, &v_eff, [1.0; 3]);
    let (tmin, tmax) = lanczos_bounds(&h_ref, 10, 7);
    let (m, a, b, a0) = (8, tmin + 0.2 * (tmax - tmin), tmax, tmin - 1.0);

    let mut x_ref = Matrix::<f64>::from_fn(space.ndofs(), 5, |i, j| {
        ((i * 3 + j * 17) as f64 * 0.23).sin()
    });
    let x0 = x_ref.clone();
    chebyshev_filter_scratch(&h_ref, &mut x_ref, m, a, b, a0, &mut CfScratch::new());
    // blocks of 2, 2 and 1 columns through one scratch
    let in_pairs = |h: &dyn HamOperator<f64>, x: &mut Matrix<f64>| {
        let mut scratch = CfScratch::new();
        for j0 in (0..x.ncols()).step_by(2) {
            let mut block = x.cols_range(j0, (j0 + 2).min(x.ncols()));
            chebyshev_filter_scratch(h, &mut block, m, a, b, a0, &mut scratch);
            x.set_cols(j0, &block);
        }
    };
    let mut blocked_ref = x0.clone();
    in_pairs(&h_ref, &mut blocked_ref);
    assert!(
        blocked_ref.as_slice() == x_ref.as_slice(),
        "serial: blocked filter != whole-block filter"
    );

    for nranks in [1, 2, 4] {
        let (errs, _) = run_cluster(nranks, |comm| {
            let dist = DistSpace::new(&space, comm.rank(), comm.size());
            let shared = SharedComm::new(comm);
            let h =
                DistHamiltonian::<f64>::new(&dist, &shared, &v_eff, [1.0; 3], WirePrecision::Fp64);
            let mut whole = restrict_rows(&dist, &x0);
            let mut blocked = whole.clone();
            chebyshev_filter_scratch(&h, &mut whole, m, a, b, a0, &mut CfScratch::new());
            in_pairs(&h, &mut blocked);
            assert!(
                blocked.as_slice() == whole.as_slice(),
                "{nranks} ranks: blocked filter != whole-block filter"
            );
            max_err_vs_owned(&dist, &whole, &x_ref)
        });
        for (r, e) in errs.iter().enumerate() {
            let tol = if nranks == 1 { 0.0 } else { 1e-12 };
            assert!(e <= &tol, "rank {r}/{nranks}: filter error {e:.3e}");
        }
    }
}

// ---------------------------------------------------------------------------
// SCF-level parity and determinism
// ---------------------------------------------------------------------------

fn parity_system() -> (FeSpace, AtomicSystem) {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    let sys = AtomicSystem::new(vec![Atom {
        kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
        pos: [3.0, 3.0, 3.0],
    }]);
    (space, sys)
}

fn parity_cfg() -> ScfConfig {
    ScfConfig {
        n_states: 4,
        kt: 0.02,
        tol: 1e-6,
        max_iter: 60,
        cheb_degree: 30,
        first_iter_cf_passes: 5,
        ..ScfConfig::default()
    }
}

/// The parity problem with 24 states for its 2 electrons: after the first
/// solve only the lowest columns are occupied at the last chemical
/// potential, so ChFES narrows every filter block to them after one step.
fn wide_cfg() -> ScfConfig {
    ScfConfig {
        n_states: 24,
        ..parity_cfg()
    }
}

#[test]
fn distributed_scf_matches_serial_energy() {
    let (space, sys) = parity_system();
    let cfg = parity_cfg();
    let r_ser = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
    assert!(r_ser.converged);
    let dcfg = DistScfConfig {
        wire: WirePrecision::Fp64,
        ..DistScfConfig::new(cfg)
    };
    for nranks in [2, 4] {
        let (results, _) = run_cluster(nranks, |comm| {
            distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
        });
        for (rank, r) in results.iter().enumerate() {
            assert!(r.converged, "rank {rank} of {nranks} did not converge");
            let d = (r.energy.free_energy - r_ser.energy.free_energy).abs();
            assert!(
                d <= 1e-10,
                "{nranks}-rank energy {} vs serial {} (|d| = {d:.3e})",
                r.energy.free_energy,
                r_ser.energy.free_energy
            );
            assert!((r.density.integrate(&space) - 2.0).abs() < 1e-6);
        }
        assert_ranks_agree(&results, &format!("{nranks} ranks"));
    }
}

/// A first solve stops on occupied residuals that every rank reads after
/// the same reduction, so on one rank, on a 2-rank slab and on a 1x2x1 band
/// grid every rank runs as many first-iteration cycles as the serial
/// solve, which runs fewer than its cap. One rank returns the serial bits;
/// the grids reproduce the serial free energy to 1e-10 Ha, their ranks
/// bitwise alike.
#[test]
fn cold_start_cycles_agree_across_ranks_and_grids() {
    let (space, sys) = parity_system();
    let gamma = [KPoint::gamma()];
    let first_cycles = |profile: Option<&ScfProfile>| -> u64 {
        let first = &profile.expect("profiled").iterations[0];
        let rr_d = first.phases.iter().find(|p| p.phase == "RR-D");
        rr_d.map_or(0, |p| p.calls)
    };
    for cfg in [parity_cfg(), wide_cfg()] {
        let cfg = ScfConfig {
            profile: true,
            ..cfg
        };
        let r_ser = scf(&space, &sys, &Lda, &cfg, &gamma);
        assert!(r_ser.converged);
        let cycles = first_cycles(r_ser.profile.as_ref());
        assert!(
            (1..cfg.first_iter_cf_passes as u64).contains(&cycles),
            "{} states: {cycles} cycles",
            cfg.n_states
        );
        for shape in [
            GridShape::slab(1),
            GridShape::slab(2),
            GridShape::new(1, 2, 1),
        ] {
            let what = format!("{} states on {shape}", cfg.n_states);
            let dcfg = DistScfConfig::new(cfg.clone()).with_grid(shape);
            let (results, _) = run_cluster(shape.nranks(), |comm| {
                distributed_scf(comm, &space, &sys, &Lda, &dcfg, &gamma).expect("scf")
            });
            for (rank, r) in results.iter().enumerate() {
                let who = format!("{what}, rank {rank}");
                assert_eq!(first_cycles(r.profile.as_ref()), cycles, "{who}");
                assert!(r.converged, "{who}");
                let (e, e_ser) = (r.energy.free_energy, r_ser.energy.free_energy);
                if shape.nranks() == 1 {
                    assert_eq!(e.to_bits(), e_ser.to_bits(), "{who}: {e} vs {e_ser}");
                }
                assert!((e - e_ser).abs() <= 1e-10, "{who}: {e} vs {e_ser}");
            }
            assert_ranks_agree(&results, &what);
        }
    }
}

/// The two-k-point Bloch set: Γ and a quarter of the zone along x.
fn two_k() -> [KPoint; 2] {
    [
        KPoint {
            frac: [0.0; 3],
            weight: 0.5,
        },
        KPoint {
            frac: [0.25, 0.0, 0.0],
            weight: 0.5,
        },
    ]
}

/// FNV-1a over the bit patterns of every eigenvalue, k-point by k-point.
fn eigenvalue_digest(eigenvalues: &[Vec<f64>]) -> u64 {
    eigenvalues
        .iter()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, e| {
            (h ^ e.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// What the serial solve gives, case by case in the order of
/// `one_rank_cluster_retraces_the_serial_solve`: (SCF iterations, free
/// energy bits, [`eigenvalue_digest`]). Recorded on the route that stops a
/// first solve once its occupied states have converged (before it, every
/// case ran its five first-iteration cycles: the same iterations, free
/// energies at most 2e-13 Ha away). The same on 1 and 2 threads.
const ONE_RANK_GOLDEN: [(usize, u64, u64); 8] = [
    (7, 0xbfffc87e079cbdf1, 0xdc2013c5695cfce0),
    (7, 0xbfffc87e079cbdd6, 0xe3c66508d62ad19c),
    (7, 0xbfff6018c6af9a21, 0xb6c43d04d543bd31),
    (7, 0xbfff6018c6af9a12, 0xbd6691c91d89d360),
    (7, 0xbffef94070cbbbdd, 0xd24ee33c22b5425c),
    (7, 0xbffef94070cbbbd4, 0xc5615269745d20fb),
    (7, 0xbfffc87e07f368f3, 0x7c48d849809f89f5),
    (7, 0xbfff6018c6b43234, 0x745e474ae0e371f9),
];

/// Serial is the 1-rank case of distributed: `scf` is the rank solve on a
/// one-rank cluster, so `distributed_scf` on one rank retraces it bit for
/// bit, and both reproduce [`ONE_RANK_GOLDEN`] — on the real Γ path and on
/// the complex two- and three-k-point Bloch paths, in FP64 and in mixed
/// precision. `scf` runs on the caller's 2 threads, so it solves the three
/// k-points in 2 lanes and one k-point waits; `distributed_scf` runs on
/// the test thread's whole budget. The 24-state problem holds the same on Γ
/// and on two k-points: each filter block narrows in place to its seen
/// columns after one step.
#[test]
fn one_rank_cluster_retraces_the_serial_solve() {
    let (space, sys) = parity_system();
    let third = |frac| KPoint {
        frac,
        weight: 1.0 / 3.0,
    };
    let three_k = [
        third([0.0; 3]),
        third([0.25, 0.0, 0.0]),
        third([0.0, 0.25, 0.25]),
    ];
    let gamma = [KPoint::gamma()];
    let mut cases = Vec::new();
    for kpts in [&gamma[..], &two_k()[..], &three_k[..]] {
        for mixed_precision in [false, true] {
            let cfg = ScfConfig {
                mixed_precision,
                ..parity_cfg()
            };
            cases.push((kpts.to_vec(), cfg));
        }
    }
    for kpts in [&gamma[..], &two_k()[..]] {
        cases.push((kpts.to_vec(), wide_cfg()));
    }
    assert_eq!(cases.len(), ONE_RANK_GOLDEN.len());
    for ((kpts, cfg), golden) in cases.iter().zip(ONE_RANK_GOLDEN) {
        let what = format!(
            "{} k-points, {} states, mixed {}",
            kpts.len(),
            cfg.n_states,
            cfg.mixed_precision
        );
        let on_two = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .expect("the thread cap");
        let serial = on_two.install(|| scf(&space, &sys, &Lda, cfg, kpts));
        assert!(serial.converged, "{what}");
        let pinned = (
            serial.iterations,
            serial.energy.free_energy.to_bits(),
            eigenvalue_digest(&serial.eigenvalues),
        );
        assert_eq!(pinned, golden, "{what}: against the golden");
        let dcfg = DistScfConfig::new(cfg.clone());
        let (results, _) = run_cluster(1, |comm| {
            distributed_scf(comm, &space, &sys, &Lda, &dcfg, kpts).expect("scf")
        });
        let dist = &results[0];
        assert_eq!(dist.iterations, serial.iterations, "{what}");
        assert_eq!(
            dist.energy.free_energy.to_bits(),
            serial.energy.free_energy.to_bits(),
            "{what}: free energy {} vs {}",
            dist.energy.free_energy,
            serial.energy.free_energy
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(dist.eigenvalues.len(), serial.eigenvalues.len());
        for (ed, es) in dist.eigenvalues.iter().zip(&serial.eigenvalues) {
            assert_eq!(bits(ed), bits(es), "{what}: eigenvalues");
        }
        assert_eq!(
            bits(&dist.residual_history),
            bits(&serial.residual_history),
            "{what}: residual history"
        );
    }
}

/// The served route is the serial one: a job runs `scf_with_recovery` on
/// one rank, which returns `scf`'s iterations, free energy, eigenvalues
/// and density to the bit, on the real and on the complex path.
#[test]
fn one_rank_recovery_run_returns_the_serial_bits() {
    use dft_core::cluster::recover::scf_with_recovery;
    use dft_hpc::comm::ClusterOptions;

    let (space, sys) = parity_system();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for kpts in [&[KPoint::gamma()][..], &two_k()[..]] {
        let cfg = parity_cfg();
        let serial = scf(&space, &sys, &Lda, &cfg, kpts);
        let dcfg = DistScfConfig::new(cfg);
        let opts = ClusterOptions::default();
        let report =
            scf_with_recovery(1, &opts, &space, &sys, &Lda, &dcfg, kpts, 0).expect("1-rank scf");
        assert_eq!((report.attempts, report.final_nranks), (1, 1));
        let served = &report.results[0];
        let what = format!("{} k-points", kpts.len());
        assert!(served.converged, "{what}");
        assert_eq!(served.iterations, serial.iterations, "{what}");
        assert_eq!(
            served.energy.free_energy.to_bits(),
            serial.energy.free_energy.to_bits(),
            "{what}: free energy"
        );
        for (a, b) in served.eigenvalues.iter().zip(&serial.eigenvalues) {
            assert_eq!(bits(a), bits(b), "{what}: eigenvalues");
        }
        assert_eq!(
            bits(&served.density.values),
            bits(&serial.density.values),
            "{what}: density"
        );
    }
}

/// The thread count is not an input of the solve: a serial SCF and a
/// 2-rank SCF each give the same energy, iteration count and eigenvalue
/// bits under a budget of 1, 2 and 4 threads. On this mesh (four cell
/// layers, one narrow column block) 2 and 4 serial threads cut every sweep
/// into two row slabs, while the two ranks split the budget (1, 1 and 2
/// threads each, through the relaunch loop that hands a launching thread's
/// budget to its ranks). The serial two-k-point complex problem runs its
/// k-points in 1 lane, in 2 lanes of 1 thread and in 2 lanes of 2 threads.
/// The 24-state problem on the 2-cell cube runs serially at filter widths
/// 8, 16 and 32 (one column block per thread): every block narrows to its
/// seen columns after one step, and one with none stops there. `scripts/ci.sh` runs this with
/// the pool at 1 and at 4 threads (`RAYON_NUM_THREADS`).
#[test]
fn energy_bits_do_not_depend_on_the_thread_count() {
    use dft_core::cluster::recover::scf_with_recovery;
    use dft_hpc::comm::ClusterOptions;

    let layers = FeSpace::new(Mesh3d::periodic_cube(4, 6.0, 2));
    let (cube, sys) = parity_system();
    let (narrow, wide) = (parity_cfg(), wide_cfg());
    let gamma = [KPoint::gamma()];
    let two_k = two_k();
    let under =
        |threads: usize, two_ranks: bool, space: &FeSpace, cfg: &ScfConfig, kpts: &[KPoint]| {
            let cap = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("the thread cap");
            cap.install(|| {
                if two_ranks {
                    let opts = ClusterOptions::default();
                    let dcfg = DistScfConfig {
                        wire: WirePrecision::Fp64,
                        ..DistScfConfig::new(cfg.clone())
                    };
                    let report = scf_with_recovery(2, &opts, space, &sys, &Lda, &dcfg, kpts, 0)
                        .expect("2-rank scf");
                    assert_ranks_agree(&report.results, &format!("{threads} threads"));
                    let r = &report.results[0];
                    assert!(r.converged);
                    (
                        r.energy.free_energy.to_bits(),
                        r.iterations,
                        r.eigenvalues.clone(),
                    )
                } else {
                    let r = scf(space, &sys, &Lda, cfg, kpts);
                    assert!(r.converged);
                    (r.energy.free_energy.to_bits(), r.iterations, r.eigenvalues)
                }
            })
        };
    for (two_ranks, space, cfg, kpts) in [
        (false, &layers, &narrow, &gamma[..]),
        (true, &layers, &narrow, &gamma[..]),
        (false, &layers, &narrow, &two_k[..]),
        (false, &cube, &wide, &gamma[..]),
    ] {
        let one = under(1, two_ranks, space, cfg, kpts);
        for threads in [2, 4] {
            let (bits, iterations, eigenvalues) = under(threads, two_ranks, space, cfg, kpts);
            let what = format!(
                "{threads} threads, two ranks: {two_ranks}, {} k, {} states",
                kpts.len(),
                cfg.n_states
            );
            assert_eq!(bits, one.0, "{what}");
            assert_eq!(iterations, one.1, "{what}");
            assert_eq!(eigenvalues, one.2, "{what}");
        }
    }
}

#[test]
fn identical_runs_are_bit_identical_at_four_ranks() {
    let (space, sys) = parity_system();
    let dcfg = DistScfConfig {
        wire: WirePrecision::Fp64,
        ..DistScfConfig::new(parity_cfg())
    };
    let run = || {
        let (results, _) = run_cluster(4, |comm| {
            distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
        });
        results
    };
    let (a, b) = (run(), run());
    assert_ranks_agree(&a, "four ranks");
    for (rank, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            ra.energy.free_energy.to_bits(),
            rb.energy.free_energy.to_bits(),
            "rank {rank} energies differ between identical runs"
        );
        assert_eq!(ra.energy.total.to_bits(), rb.energy.total.to_bits());
        assert_eq!(ra.eigenvalues, rb.eigenvalues);
        assert_eq!(ra.residual_history, rb.residual_history);
        assert_eq!(ra.iterations, rb.iterations);
    }
}

#[test]
fn fp32_wire_matches_fp64_energy_and_halves_boundary_bytes() {
    let (space, sys) = parity_system();
    let base = parity_cfg();
    let mut volumes = Vec::new();
    let mut energies = Vec::new();
    for wire in [WirePrecision::Fp64, WirePrecision::Fp32] {
        let dcfg = DistScfConfig {
            wire,
            ..DistScfConfig::new(base.clone())
        };
        let (results, stats) = run_cluster(2, |comm| {
            distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
        });
        assert!(results.iter().all(|r| r.converged));
        assert_ranks_agree(&results, &format!("{wire:?} wire"));
        energies.push(results[0].energy.free_energy);
        volumes.push(stats.snapshot());
    }
    let d = (energies[0] - energies[1]).abs();
    assert!(
        d <= 1e-8,
        "fp64 {} vs fp32-wire {} (|d| = {d:.3e})",
        energies[0],
        energies[1]
    );
    // the fp32 run actually moved fp32 bytes, and its total volume is
    // smaller than the all-fp64 run's
    let (total64, _, _, fp32_in_64) = volumes[0];
    let (total32, _, _, fp32_in_32) = volumes[1];
    assert_eq!(fp32_in_64, 0, "fp64 run must move no fp32 bytes");
    assert!(fp32_in_32 > 0, "fp32 run moved no fp32 bytes");
    assert!(
        total32 < total64,
        "fp32 wire did not reduce volume: {total32} vs {total64}"
    );
}
