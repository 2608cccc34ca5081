//! Process-grid oracle tests: SCF energies must be invariant under the
//! rank layout — slab, domain x band, domain x band x k-group — and match
//! the serial solver to 1e-10 Ha; no grid and the slab grid must be one
//! run, bits and messages; and the subspace reduction must send exactly
//! the legs advertised (one FP64 leg, plus an FP32 one only when lossy,
//! which stays 1e-8-close — as do FP32 subspace products, on any grid).

use dft_core::chebyshev::{
    chfes_reduced, lanczos_bounds, random_subspace, ChfesOptions, NoReduce, SubspaceReducer,
};
use dft_core::cluster::grid::{GridShape, ProcessGrid};
use dft_core::cluster::operator::{DistHamiltonian, DistSpace, SharedComm};
use dft_core::cluster::reduce::{CommVolume, GridReducer};
use dft_core::cluster::scf::{distributed_scf, DistScfConfig};
use dft_core::hamiltonian::KsHamiltonian;
use dft_core::scf::{scf, KPoint, ScfConfig, ScfResult};
use dft_core::system::{Atom, AtomKind, AtomicSystem};
use dft_core::xc::Lda;
use dft_fem::mesh::Mesh3d;
use dft_fem::space::FeSpace;
use dft_hpc::comm::{run_cluster, CommStats, WirePrecision};
use dft_linalg::gemm::{matmul, Op};
use dft_linalg::iterative::LinearOperator;
use dft_linalg::matrix::Matrix;

mod common;
use common::assert_ranks_agree;

/// The cluster totals a finished run's [`CommStats`] hold.
fn volume(stats: &CommStats) -> CommVolume {
    let (bytes_total, messages, bytes_fp64, bytes_fp32) = stats.snapshot();
    CommVolume {
        bytes_total,
        messages,
        bytes_fp64,
        bytes_fp32,
    }
}

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

/// Two k-points exercising the complex (Bloch) path and the k-group axis.
fn two_kpoints() -> Vec<KPoint> {
    vec![
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

fn run_grid(dcfg: &DistScfConfig, nranks: usize, kpts: &[KPoint]) -> Vec<ScfResult> {
    let (space, sys) = parity_system();
    let (results, _) = run_cluster(nranks, |comm| {
        distributed_scf(comm, &space, &sys, &Lda, dcfg, kpts).expect("scf")
    });
    results
}

/// Γ-only, four ranks: the 4x1 slab grid and the 2x2 domain x band grid
/// both reproduce the serial free energy to 1e-10 Ha, and replicated
/// quantities agree bitwise across every rank of a run.
#[test]
fn band_grid_energies_match_serial_oracle() {
    let (space, sys) = parity_system();
    let cfg = parity_cfg();
    let r_ser = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
    assert!(r_ser.converged);
    for shape in [GridShape::new(4, 1, 1), GridShape::new(2, 2, 1)] {
        let dcfg = DistScfConfig::new(cfg.clone()).with_grid(shape);
        let results = run_grid(&dcfg, shape.nranks(), &[KPoint::gamma()]);
        for (rank, r) in results.iter().enumerate() {
            assert!(r.converged, "rank {rank} on {shape} did not converge");
            let d = (r.energy.free_energy - r_ser.energy.free_energy).abs();
            assert!(
                d <= 1e-10,
                "{shape} energy {} vs serial {} (|d| = {d:.3e})",
                r.energy.free_energy,
                r_ser.energy.free_energy
            );
        }
        assert_ranks_agree(&results, &shape.to_string());
    }
}

/// With 24 states for 2 electrons, ChFES narrows every filter block to
/// its occupied columns after one step, filtered 8 columns at a time or
/// (at `B_f` = 64, the `dist-2r` shape) as one window-wide block per rank.
/// A domain split (2x1x1, whose ranks reduce each column's Rayleigh
/// quotient before they decide) and a band split (1x2x1, 12 columns per
/// rank) both reproduce the serial free energy to 1e-10 Ha, and their ranks
/// agree bitwise.
#[test]
fn occupied_filter_grids_match_serial_oracle() {
    let (space, sys) = parity_system();
    for block_size in [8, 64] {
        let cfg = ScfConfig {
            n_states: 24,
            block_size,
            ..parity_cfg()
        };
        let r_ser = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
        assert!(r_ser.converged);
        for shape in [GridShape::new(2, 1, 1), GridShape::new(1, 2, 1)] {
            let what = format!("{shape}, B_f = {block_size}");
            let dcfg = DistScfConfig::new(cfg.clone()).with_grid(shape);
            let results = run_grid(&dcfg, shape.nranks(), &[KPoint::gamma()]);
            for (rank, r) in results.iter().enumerate() {
                assert!(r.converged, "rank {rank} on {what} did not converge");
                let d = (r.energy.free_energy - r_ser.energy.free_energy).abs();
                assert!(d <= 1e-10, "{what}: |dE| = {d:.3e}");
            }
            assert_ranks_agree(&results, &what);
        }
    }
}

/// Narrowing a filter block to its seen columns thins the ghost exchange
/// without splitting it: one ChFES cycle on 2x1x1 at `B_f` = 64, from Ritz
/// vectors with a Fermi level on the fourth Ritz value, sends as many
/// messages as the same cycle at a Fermi level above every Ritz value,
/// which sees every column and runs it to full degree, and strictly fewer
/// bytes. Its Ritz values agree across ranks and match the
/// serial narrowed cycle to 1e-10.
#[test]
fn narrowed_filter_sends_the_same_messages_and_fewer_bytes() {
    const N: usize = 24;
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    let v_eff: Vec<f64> = (0..space.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let h_ser = KsHamiltonian::<f64>::new(&space, &v_eff, [1.0; 3]);
    let (tmin, tmax) = lanczos_bounds(&h_ser, 10, 7);
    let bounds = (tmin - 1.0, tmin + 0.2 * (tmax - tmin), tmax);
    let opts = ChfesOptions {
        cheb_degree: 12,
        block_size: 64,
        mixed_precision: false,
    };
    let mut ritz = random_subspace::<f64>(space.ndofs(), N, 5);
    let ritz_values = chfes_reduced(&h_ser, &mut ritz, bounds, &opts, None, None, &NoReduce);
    let level = Some((ritz_values[3], 1e-3));
    let mut psi_ser = ritz.clone();
    let ev_ser = chfes_reduced(&h_ser, &mut psi_ser, bounds, &opts, level, None, &NoReduce);

    let shape = GridShape::new(2, 1, 1);
    let cycle = |occupied_at| {
        let (out, stats) = run_cluster(shape.nranks(), |comm| {
            let dist = DistSpace::on_grid(&space, Some(shape), comm.rank(), comm.size());
            let shared = SharedComm::new(comm);
            let reducer = GridReducer::new(&shared, &dist.grid, false);
            let h =
                DistHamiltonian::<f64>::new(&dist, &shared, &v_eff, [1.0; 3], WirePrecision::Fp64);
            let mut psi = Matrix::<f64>::from_fn(dist.dec.n_owned(), N, |l, j| {
                ritz[(dist.dec.owned[l] as usize, j)]
            });
            let ev = chfes_reduced(&h, &mut psi, bounds, &opts, occupied_at, None, &reducer);
            (ev, shared.failure())
        });
        (out, volume(&stats))
    };
    let (_, full) = cycle(Some((ritz_values[N - 1] + 1.0, 1e-3)));
    let (out, narrowed) = cycle(level);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (rank, (ev, failure)) in out.iter().enumerate() {
        assert!(failure.is_none(), "rank {rank}: {failure:?}");
        assert_eq!(bits(ev), bits(&out[0].0), "rank {rank} disagrees");
        for (e, s) in ev.iter().zip(&ev_ser) {
            assert!((e - s).abs() <= 1e-10, "rank {rank}: {e} vs serial {s}");
        }
    }
    assert_eq!(narrowed.messages, full.messages);
    assert!(
        narrowed.bytes_total < full.bytes_total,
        "narrowed {} B, full width {} B",
        narrowed.bytes_total,
        full.bytes_total
    );
}

/// The full 3-axis grid: two k-points on eight ranks as 2x2x2 match the
/// serial two-k solve to 1e-10 Ha, as does the same rank count laid out as
/// a pure 8x1 slab — energies are rank-layout-invariant.
#[test]
fn three_axis_grid_matches_serial_two_kpoint_oracle() {
    let (space, sys) = parity_system();
    let cfg = parity_cfg();
    let kpts = two_kpoints();
    let r_ser = scf(&space, &sys, &Lda, &cfg, &kpts);
    assert!(r_ser.converged);
    let mut energies = Vec::new();
    for shape in [GridShape::new(8, 1, 1), GridShape::new(2, 2, 2)] {
        let dcfg = DistScfConfig::new(cfg.clone()).with_grid(shape);
        let results = run_grid(&dcfg, 8, &kpts);
        for (rank, r) in results.iter().enumerate() {
            assert!(r.converged, "rank {rank} on {shape} did not converge");
            let d = (r.energy.free_energy - r_ser.energy.free_energy).abs();
            assert!(
                d <= 1e-10,
                "{shape} energy {} vs serial {} (|d| = {d:.3e})",
                r.energy.free_energy,
                r_ser.energy.free_energy
            );
            // every rank reports all k-points' eigenvalues, including the
            // k-group it does not own
            assert_eq!(r.eigenvalues.len(), kpts.len());
            assert!(r.eigenvalues.iter().all(|e| e.len() == 4));
        }
        assert_ranks_agree(&results, &shape.to_string());
        energies.push(results[0].energy.free_energy);
    }
    let d = (energies[0] - energies[1]).abs();
    assert!(d <= 1e-10, "8x1 vs 2x2x2 layout drift {d:.3e}");
}

/// `grid: None` *is* the n x 1 x 1 grid: at 2 and 4 ranks it lands on the
/// same bits as `Some(GridShape::slab(n))` and puts the same traffic on the
/// wire — message count, bytes, and the split by precision.
#[test]
fn no_grid_and_slab_grid_are_one_run_bits_and_messages() {
    let (space, sys) = parity_system();
    for nranks in [2, 4] {
        let run = |grid: Option<GridShape>| {
            let mut dcfg = DistScfConfig::new(parity_cfg());
            dcfg.grid = grid;
            let (results, stats) = run_cluster(nranks, |comm| {
                distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
            });
            (results, volume(&stats))
        };
        let (a, vol_a) = run(None);
        let (b, vol_b) = run(Some(GridShape::slab(nranks)));
        assert_ranks_agree(&a, &format!("{nranks} ranks, no grid"));
        for (rank, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                ra.energy.free_energy.to_bits(),
                rb.energy.free_energy.to_bits(),
                "rank {rank} of {nranks}: the slab grid diverged from no grid"
            );
            assert_eq!(ra.eigenvalues, rb.eigenvalues);
            assert_eq!(ra.residual_history, rb.residual_history);
        }
        assert_eq!(vol_a, vol_b, "{nranks} ranks: traffic differs");
        assert_eq!(vol_a.bytes_fp32, 0);
    }
}

/// More band slots than states (a shape `pick_grid` lets a tenant ask for):
/// two of the six band blocks are empty, and the run still converges to
/// the serial energy — in FP64 to 1e-10 Ha, and in mixed precision to the
/// bits of the serial mixed solve, because a zero-width window is a no-op
/// in every phase and the FP32 / FP64 layout of `S` and `H_p` does not
/// depend on the grid.
#[test]
fn empty_band_blocks_match_serial_oracle() {
    let (space, sys) = parity_system();
    let shape = GridShape::new(1, 6, 1);
    for mixed_precision in [false, true] {
        let cfg = ScfConfig {
            mixed_precision,
            ..parity_cfg()
        };
        let r_ser = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
        let dcfg = DistScfConfig::new(cfg).with_grid(shape);
        let results = run_grid(&dcfg, shape.nranks(), &[KPoint::gamma()]);
        assert_ranks_agree(&results, &format!("{shape} mixed {mixed_precision}"));
        for (rank, r) in results.into_iter().enumerate() {
            assert!(r.converged, "rank {rank} on {shape} did not converge");
            let d = (r.energy.free_energy - r_ser.energy.free_energy).abs();
            assert!(
                d <= 1e-10,
                "{shape} mixed {mixed_precision}: |dE| = {d:.3e}"
            );
            if mixed_precision {
                assert_eq!(
                    r.energy.free_energy.to_bits(),
                    r_ser.energy.free_energy.to_bits(),
                    "{shape}: mixed band grid left the serial mixed bits"
                );
            }
        }
    }
}

/// One subspace-matrix reduction, counted on the wire. Exact: one FP64 leg
/// up and down each grid row plus the grid-column allgather, so the slab
/// sends what one all-rank allreduce sends. Lossy: one more (FP32) leg per
/// grid row, and only then any FP32 bytes. Either way every rank ends with
/// the sum over its column's grid row.
#[test]
fn reduce_matrix_sends_one_fp64_leg_unless_lossy() {
    const N: usize = 5;
    // small integers: exact in FP32, so the lossy sum is checked exactly too
    let entry = |rank: usize, i: usize, j: usize| (1 + rank * 100 + i * N + j) as f64;
    for (shape, lossy, messages) in [
        (GridShape::slab(4), false, 6),
        (GridShape::new(2, 2, 1), false, 4 + 4),
        (GridShape::new(2, 2, 1), true, 4 + 4 + 4),
    ] {
        let nranks = shape.nranks();
        let (reduced, stats) = run_cluster(nranks, |comm| {
            let grid = ProcessGrid::new(shape, comm.rank(), nranks);
            let shared = SharedComm::new(comm);
            let reducer = GridReducer::new(&shared, &grid, lossy);
            let (j0, j1) = grid.my_band_cols(N);
            let mut m = Matrix::<f64>::from_fn(N, N, |i, j| {
                if (j0..j1).contains(&j) {
                    entry(grid.rank, i, j)
                } else {
                    0.0
                }
            });
            reducer.reduce_matrix(&mut m, false);
            m
        });
        let want = Matrix::<f64>::from_fn(N, N, |i, j| {
            (0..nranks)
                .map(|r| ProcessGrid::new(shape, r, nranks))
                .filter(|g| {
                    let (j0, j1) = g.my_band_cols(N);
                    (j0..j1).contains(&j)
                })
                .map(|g| entry(g.rank, i, j))
                .sum()
        });
        for m in &reduced {
            assert_eq!(m.as_slice(), want.as_slice(), "{shape} lossy {lossy}");
        }
        let vol = volume(&stats);
        assert_eq!(vol.messages, messages, "{shape} lossy {lossy}: messages");
        assert_eq!(
            vol.bytes_fp32 > 0,
            lossy,
            "{shape} lossy {lossy}: FP32 bytes"
        );
    }
}

/// The two places FP32 enters the subspace (Sec. 5.4.2) — FP32
/// off-diagonal-block products (`mixed_precision`) and FP32 off-band-
/// diagonal reductions (`subspace_fp32`) — alone and together, on a
/// domain x band grid and on a pure band grid: the converged energy stays
/// within 1e-8 Ha of the all-FP64 run of the same grid, the ranks of a run
/// agree bitwise, and FP32 bytes move iff the reduction is lossy and its
/// grid row has someone to send to. (The ghost wire is FP64 throughout, so
/// any FP32 traffic is the subspace's.)
#[test]
fn subspace_fp32_energy_within_tolerance_and_moves_fp32_bytes() {
    let (space, sys) = parity_system();
    for shape in [GridShape::new(2, 2, 1), GridShape::new(1, 2, 1)] {
        let mut e_fp64 = None;
        for (mixed_precision, subspace_fp32) in
            [(false, false), (false, true), (true, false), (true, true)]
        {
            let what = format!("{shape} mixed {mixed_precision} subspace_fp32 {subspace_fp32}");
            let cfg = ScfConfig {
                mixed_precision,
                ..parity_cfg()
            };
            let mut dcfg = DistScfConfig::new(cfg).with_grid(shape);
            if subspace_fp32 {
                dcfg = dcfg.with_subspace_fp32();
            }
            let (results, stats) = run_cluster(shape.nranks(), |comm| {
                distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
            });
            assert!(results.iter().all(|r| r.converged), "{what}");
            assert_ranks_agree(&results, &what);
            let e = results[0].energy.free_energy;
            let e_ref = *e_fp64.get_or_insert(e);
            let d = (e - e_ref).abs();
            assert!(d <= 1e-8, "{what}: {e} vs all-FP64 {e_ref} (|d| = {d:.3e})");
            let (_, _, _, fp32_bytes) = stats.snapshot();
            assert_eq!(
                fp32_bytes > 0,
                subspace_fp32 && shape.n_dom > 1,
                "{what}: {fp32_bytes} FP32 bytes"
            );
        }
    }
}

/// One ChFES cycle straight on the grid, with FP32 rounding entering every
/// way it can — in the subspace products on a full window (1x1x1), on band
/// windows (one narrower than `B_f`, one straddling a `B_f` boundary), on
/// the reduction wire, or both: the FP64 CholGS cleanup pass leaves
/// max |Psi† Psi - I| <= 1e-12 on every rank.
#[test]
fn chfes_cycle_is_orthonormal_after_fp32_products_and_fp32_wire() {
    const N: usize = 6;
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    let v_eff: Vec<f64> = (0..space.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let (tmin, tmax) = lanczos_bounds(&KsHamiltonian::<f64>::new(&space, &v_eff, [1.0; 3]), 10, 7);
    let bounds = (tmin - 1.0, tmin + 0.2 * (tmax - tmin), tmax);
    let psi0 = random_subspace::<f64>(space.ndofs(), N, 5);
    for (shape, mixed_precision, lossy) in [
        (GridShape::new(1, 1, 1), true, false),
        (GridShape::new(2, 2, 1), true, false),
        (GridShape::new(1, 2, 1), true, false),
        (GridShape::new(2, 2, 1), false, true),
        (GridShape::new(2, 2, 1), true, true),
    ] {
        let opts = ChfesOptions {
            cheb_degree: 12,
            block_size: 4,
            mixed_precision,
        };
        let (errs, _) = run_cluster(shape.nranks(), |comm| {
            let dist = DistSpace::on_grid(&space, Some(shape), comm.rank(), comm.size());
            let shared = SharedComm::new(comm);
            let reducer = GridReducer::new(&shared, &dist.grid, lossy);
            let h =
                DistHamiltonian::<f64>::new(&dist, &shared, &v_eff, [1.0; 3], WirePrecision::Fp64);
            let mut psi = Matrix::<f64>::from_fn(dist.dec.n_owned(), N, |l, j| {
                psi0[(dist.dec.owned[l] as usize, j)]
            });
            chfes_reduced(&h, &mut psi, bounds, &opts, None, None, &reducer);
            let mut gram = matmul(&psi, Op::ConjTrans, &psi, Op::None);
            SubspaceReducer::<f64>::reduce_f64(&reducer, gram.as_mut_slice());
            gram.max_abs_diff(&Matrix::identity(N))
        });
        for (rank, err) in errs.iter().enumerate() {
            assert!(
                *err <= 1e-12,
                "{shape} mixed {mixed_precision} lossy {lossy}, rank {rank}: {err:.3e}"
            );
        }
    }
}

/// A rank-deficient filtered block — column 4 is a copy of column 1, so the
/// overlap is singular and CholGS breaks down at pivot 4 — is rescued the
/// same way on every layout (the dependent column is traded for `H` times
/// itself): no panic, orthonormal Ritz vectors, ranks agree, and the 1-rank
/// cluster lands on the serial solver's bits. Serially this input used to
/// die in the Löwdin fallback (a singular overlap has no `S^{-1/2}`) and on
/// any cluster, one rank included, in an assert.
#[test]
fn duplicated_column_is_rescued_serially_and_on_ranks() {
    const N: usize = 6;
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    let v_eff: Vec<f64> = (0..space.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let h_ser = KsHamiltonian::<f64>::new(&space, &v_eff, [1.0; 3]);
    let (tmin, tmax) = lanczos_bounds(&h_ser, 10, 7);
    let bounds = (tmin - 1.0, tmin + 0.2 * (tmax - tmin), tmax);
    let mut psi0 = random_subspace::<f64>(space.ndofs(), N, 5);
    let dup = psi0.col(1).to_vec();
    psi0.col_mut(4).copy_from_slice(&dup);
    let opts = ChfesOptions {
        cheb_degree: 12,
        block_size: 4,
        mixed_precision: false,
    };

    let mut psi_ser = psi0.clone();
    let ev_ser = chfes_reduced(&h_ser, &mut psi_ser, bounds, &opts, None, None, &NoReduce);
    let gram = matmul(&psi_ser, Op::ConjTrans, &psi_ser, Op::None);
    let err = gram.max_abs_diff(&Matrix::identity(N));
    assert!(err <= 1e-10, "serial: max |Psi^T Psi - I| = {err:.3e}");

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for shape in [
        GridShape::new(1, 1, 1),
        GridShape::new(2, 1, 1),
        GridShape::new(1, 2, 1),
    ] {
        let (out, _) = run_cluster(shape.nranks(), |comm| {
            let dist = DistSpace::on_grid(&space, Some(shape), comm.rank(), comm.size());
            let shared = SharedComm::new(comm);
            let reducer = GridReducer::new(&shared, &dist.grid, false);
            let h =
                DistHamiltonian::<f64>::new(&dist, &shared, &v_eff, [1.0; 3], WirePrecision::Fp64);
            let mut psi = Matrix::<f64>::from_fn(dist.dec.n_owned(), N, |l, j| {
                psi0[(dist.dec.owned[l] as usize, j)]
            });
            let ev = chfes_reduced(&h, &mut psi, bounds, &opts, None, None, &reducer);
            let mut gram = matmul(&psi, Op::ConjTrans, &psi, Op::None);
            SubspaceReducer::<f64>::reduce_f64(&reducer, gram.as_mut_slice());
            (ev, psi, gram.max_abs_diff(&Matrix::identity(N)))
        });
        for (rank, (ev, _, err)) in out.iter().enumerate() {
            assert!(*err <= 1e-10, "{shape}, rank {rank}: {err:.3e}");
            assert_eq!(bits(ev), bits(&out[0].0), "{shape}: rank {rank} disagrees");
        }
        if shape.nranks() == 1 {
            assert_eq!(
                bits(&out[0].0),
                bits(&ev_ser),
                "1 rank vs serial Ritz values"
            );
            let (psi, want) = (out[0].1.as_slice(), psi_ser.as_slice());
            assert_eq!(bits(psi), bits(want), "1 rank vs serial Ritz vectors");
        }
    }
}

/// Which columns run the full filter degree is decided cluster-wide.
/// Column 0 lives on rank 0's rows of a 2x1x1 grid only, so rank 1 holds
/// none of its Rayleigh-quotient sums, and it is occupied at the Fermi
/// level while the filter's midpoint is not. Each rank reduces the sums
/// before it decides, so both filter column 0 to full degree — one column
/// per block, where a split verdict would leave one rank exchanging ghosts
/// the other never sends — agree bitwise, and match the serial cycle.
#[test]
fn occupied_verdict_is_reduced_over_the_domain_group() {
    const N: usize = 4;
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    let v_eff: Vec<f64> = (0..space.nnodes())
        .map(|i| 0.3 * (i as f64 * 0.05).sin())
        .collect();
    let h_ser = KsHamiltonian::<f64>::new(&space, &v_eff, [1.0; 3]);
    let (tmin, tmax) = lanczos_bounds(&h_ser, 10, 7);
    let bounds = (tmin - 1.0, tmin + 0.2 * (tmax - tmin), tmax);
    let shape = GridShape::new(2, 1, 1);
    let rank1 = DistSpace::on_grid(&space, Some(shape), 1, 2);
    let mut psi0 = random_subspace::<f64>(space.ndofs(), N, 5);
    psi0.col_mut(0).fill(1.0);
    for &d in &rank1.dec.owned {
        psi0[(d as usize, 0)] = 0.0;
    }
    let x = psi0.cols_range(0, 1);
    let mut hx = Matrix::<f64>::zeros(space.ndofs(), 1);
    h_ser.apply(&x, &mut hx);
    let rq = matmul(&x, Op::ConjTrans, &hx, Op::None)[(0, 0)]
        / matmul(&x, Op::ConjTrans, &x, Op::None)[(0, 0)];
    let mu = rq + 1.0;
    assert!(
        mu + 1.0 < (bounds.1 + bounds.2) / 2.0,
        "column 0 (RQ {rq}) is not below the filter's midpoint"
    );
    let level = Some((mu, 0.01));
    let opts = ChfesOptions {
        cheb_degree: 12,
        block_size: 1,
        mixed_precision: false,
    };
    let mut psi_ser = psi0.clone();
    let ev_ser = chfes_reduced(&h_ser, &mut psi_ser, bounds, &opts, level, None, &NoReduce);

    let (out, _) = run_cluster(shape.nranks(), |comm| {
        let dist = DistSpace::on_grid(&space, Some(shape), comm.rank(), comm.size());
        let shared = SharedComm::new(comm);
        let reducer = GridReducer::new(&shared, &dist.grid, false);
        let h = DistHamiltonian::<f64>::new(&dist, &shared, &v_eff, [1.0; 3], WirePrecision::Fp64);
        let mut psi = Matrix::<f64>::from_fn(dist.dec.n_owned(), N, |l, j| {
            psi0[(dist.dec.owned[l] as usize, j)]
        });
        let ev = chfes_reduced(&h, &mut psi, bounds, &opts, level, None, &reducer);
        (ev, shared.failure())
    });
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (rank, (ev, failure)) in out.iter().enumerate() {
        assert!(failure.is_none(), "rank {rank}: {failure:?}");
        assert_eq!(bits(ev), bits(&out[0].0), "rank {rank} disagrees");
        for (e, s) in ev.iter().zip(&ev_ser) {
            assert!((e - s).abs() <= 1e-10, "rank {rank}: {e} vs serial {s}");
        }
    }
}

/// Grid-reshard restart: a snapshot written on the 8x1 slab layout
/// restores onto a 4x2 domain x band grid (same rank count, different
/// shape) and reconverges to the uninterrupted slab run's free energy to
/// 1e-10 Ha. Band replicas write no wavefunction blocks, so the snapshot
/// itself shrinks with band parallelism — yet reassembles completely.
#[test]
fn restart_reshards_8x1_snapshot_onto_4x2_grid() {
    let dir = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "dft-grid-reshard-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    };

    // uninterrupted 8x1 reference
    let dcfg_ref = DistScfConfig::new(parity_cfg()).with_grid(GridShape::new(8, 1, 1));
    let reference = run_grid(&dcfg_ref, 8, &[KPoint::gamma()]);
    assert!(reference[0].converged);
    assert_ranks_agree(&reference, "8x1 reference");

    // truncated 8x1 run: snapshots every 2 iterations, stopped after 3
    let mut base = parity_cfg();
    base.max_iter = 3;
    let dcfg_cut = DistScfConfig::new(base)
        .with_grid(GridShape::new(8, 1, 1))
        .with_checkpoints(dir.clone(), 2);
    let cut = run_grid(&dcfg_cut, 8, &[KPoint::gamma()]);
    assert!(!cut[0].converged, "3 iterations must not converge");

    // resume the snapshot on a different grid shape
    let dcfg_resume = DistScfConfig::new(parity_cfg())
        .with_grid(GridShape::new(4, 2, 1))
        .with_restart_from(dir.clone());
    let resumed = run_grid(&dcfg_resume, 8, &[KPoint::gamma()]);
    assert_ranks_agree(&resumed, "resumed on 4x2");
    for (rank, r) in resumed.iter().enumerate() {
        assert_eq!(r.resumed_from, Some(2), "rank {rank} did not resume");
        assert!(r.converged, "rank {rank} did not reconverge");
        let d = (r.energy.free_energy - reference[0].energy.free_energy).abs();
        assert!(
            d <= 1e-10,
            "resharded energy {} vs 8x1 reference {} (|d| = {d:.3e})",
            r.energy.free_energy,
            reference[0].energy.free_energy
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exposed ghost wait is what the boundary/interior overlap inside an
/// apply is there to hide; here we only check the counter plumbing — the
/// wait counter accumulates at all — since wall-clock assertions are flaky
/// in CI.
#[test]
fn ghost_wait_counter_accumulates() {
    let cfg = parity_cfg();
    let dcfg = DistScfConfig::new(cfg);
    let (space, sys) = parity_system();
    let (results, stats) = run_cluster(2, |comm| {
        distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()]).expect("scf")
    });
    assert!(results.iter().all(|r| r.converged));
    assert!(
        stats
            .ghost_wait_nanos
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "ghost-wait counter never accumulated"
    );
}

/// The Lanczos bounds an eigensolve opens with, on the operator each rank
/// filters with: this rank's rows of the whole-problem start vector, every
/// sum reduced over the grid row. One rank reads `lanczos_bounds` on the
/// serial operator bit for bit; 2 and 4 slab ranks, a 2x2x1 grid, and 3
/// slab ranks on a 2-cell mesh (the third rank owns no rows, yet takes
/// every step and collective) agree with it to 1e-12 relative; and the
/// ranks of every run agree bit for bit.
#[test]
fn lanczos_bounds_agree_across_layouts() {
    use dft_core::chebyshev::{lanczos_reduced, lanczos_start};
    use dft_fem::mesh::{Axis, BoundaryCondition as Bc};
    let two_cells = FeSpace::new(Mesh3d::new(
        [
            Axis::uniform(2, 0.0, 6.0, Bc::Periodic),
            Axis::uniform(1, 0.0, 3.0, Bc::Dirichlet),
            Axis::uniform(1, 0.0, 3.0, Bc::Dirichlet),
        ],
        3,
    ));
    assert_eq!(two_cells.cells().len(), 2);
    let cube = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    for (space, shape) in [
        (&cube, GridShape::slab(1)),
        (&cube, GridShape::slab(2)),
        (&cube, GridShape::slab(4)),
        (&cube, GridShape::new(2, 2, 1)),
        (&two_cells, GridShape::slab(3)),
    ] {
        let v_eff: Vec<f64> = (0..space.nnodes())
            .map(|i| 0.3 * (i as f64 * 0.05).sin())
            .collect();
        let serial = lanczos_bounds(&KsHamiltonian::<f64>::new(space, &v_eff, [1.0; 3]), 10, 7);
        let (out, _) = run_cluster(shape.nranks(), |comm| {
            let dist = DistSpace::on_grid(space, Some(shape), comm.rank(), comm.size());
            let shared = SharedComm::new(comm);
            let reducer = GridReducer::new(&shared, &dist.grid, false);
            let h =
                DistHamiltonian::<f64>::new(&dist, &shared, &v_eff, [1.0; 3], WirePrecision::Fp64);
            let rows = dist.dec.owned.iter().map(|&d| d as usize);
            let (start, steps) = lanczos_start::<f64>((space.ndofs(), 10, 7), rows);
            let bounds = lanczos_reduced(&h, start, steps, &reducer);
            (bounds, dist.dec.n_owned(), shared.failure())
        });
        let bits = |(a, b): (f64, f64)| (a.to_bits(), b.to_bits());
        for (rank, &(bounds, _, failure)) in out.iter().enumerate() {
            assert!(failure.is_none(), "{shape}, rank {rank}: {failure:?}");
            assert_eq!(
                bits(bounds),
                bits(out[0].0),
                "{shape}: rank {rank} disagrees"
            );
        }
        let empty = out.iter().filter(|o| o.1 == 0).count();
        assert_eq!(
            empty > 0,
            std::ptr::eq(space, &two_cells),
            "{shape}: {empty} empty ranks"
        );
        let (got, want) = (out[0].0, serial);
        if shape.nranks() == 1 {
            assert_eq!(bits(got), bits(want), "1 rank: {got:?} vs serial {want:?}");
        }
        for (g, w) in [(got.0, want.0), (got.1, want.1)] {
            assert!(
                (g - w).abs() <= 1e-12 * w.abs(),
                "{shape}: {got:?} vs serial {want:?}"
            );
        }
    }
}
