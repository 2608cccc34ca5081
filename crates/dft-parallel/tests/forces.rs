//! Oracle tests for the distributed force assembly and the distributed
//! FIRE driver: every rank's [`distributed_forces`] output is checked
//! against the serial [`compute_forces`] on periodic and Dirichlet
//! goldens, across rank counts and process-grid shapes, for bitwise
//! run-to-run determinism (L004), the full `dist_relax` trajectory is
//! checked against the serial `relax` driver, and the `dist_md`
//! velocity-Verlet trajectory for rank invariance and energy conservation.

use dft_core::forces::compute_forces;
use dft_core::relax::{relax, RelaxConfig};
use dft_core::scf::{KPoint, ScfConfig};
use dft_core::system::{Atom, AtomKind, AtomicSystem};
use dft_core::xc::Lda;
use dft_fem::mesh::Mesh3d;
use dft_fem::space::FeSpace;
use dft_hpc::comm::run_cluster;
use dft_parallel::{
    dist_md, dist_relax, distributed_forces, DistMdResult, DistRelaxConfig, DistScfConfig,
    GridShape, MdConfig, MdStepRecord,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Three asymmetric smeared ions — no force component is accidentally
/// zero, so a sign or partition bug cannot hide behind symmetry.
fn force_system() -> AtomicSystem {
    AtomicSystem::new(vec![
        Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
            pos: [1.3, 2.0, 2.0],
        },
        Atom {
            kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
            pos: [2.7, 2.1, 1.8],
        },
        Atom {
            kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
            pos: [2.0, 1.1, 2.9],
        },
    ])
}

fn max_component_err(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut err: f64 = 0.0;
    for (fa, fb) in a.iter().zip(b.iter()) {
        for k in 0..3 {
            err = err.max((fa[k] - fb[k]).abs());
        }
    }
    err
}

/// Distributed forces at `nranks` (slab grid) against the serial
/// assembly: every rank must agree to 1e-12 per component.
fn check_force_oracle(space: &FeSpace, sys: &AtomicSystem, rho_e: &[f64], nranks: usize) {
    let f_ref = compute_forces(space, sys, rho_e).expect("serial forces");
    let (results, _) = run_cluster(nranks, |comm| {
        distributed_forces(comm, space, sys, rho_e, None).expect("dist forces")
    });
    for (r, f) in results.iter().enumerate() {
        let e = max_component_err(f, &f_ref);
        assert!(e <= 1e-12, "rank {r}/{nranks}: force error {e:.3e}");
    }
}

#[test]
fn distributed_forces_match_serial_periodic() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let sys = force_system();
    let rho_e = sys.initial_density(&space);
    for nranks in [2, 4] {
        check_force_oracle(&space, &sys, &rho_e, nranks);
    }
}

#[test]
fn distributed_forces_match_serial_dirichlet() {
    let space = FeSpace::new(Mesh3d::cube(2, 4.0, 3));
    let sys = force_system();
    let rho_e = sys.initial_density(&space);
    for nranks in [2, 4] {
        check_force_oracle(&space, &sys, &rho_e, nranks);
    }
}

/// Band- and k-replicated grid shapes must count every owned node exactly
/// once: the masked electrostatic partials tile the serial sum no matter
/// how the 4 ranks are factored.
#[test]
fn distributed_forces_match_serial_across_grid_shapes() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let sys = force_system();
    let rho_e = sys.initial_density(&space);
    let f_ref = compute_forces(&space, &sys, &rho_e).expect("serial forces");
    for shape in [
        GridShape::new(4, 1, 1),
        GridShape::new(2, 2, 1),
        GridShape::new(1, 2, 2),
    ] {
        let (results, _) = run_cluster(4, |comm| {
            distributed_forces(comm, &space, &sys, &rho_e, Some(shape)).expect("dist forces")
        });
        for (r, f) in results.iter().enumerate() {
            let e = max_component_err(f, &f_ref);
            assert!(e <= 1e-12, "grid {shape:?} rank {r}: force error {e:.3e}");
        }
    }
}

/// The fixed-rank-order reduction makes repeated runs bit-identical and
/// the replicated result identical on every rank (L004).
#[test]
fn repeated_force_runs_are_bit_identical() {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3));
    let sys = force_system();
    let rho_e = sys.initial_density(&space);
    let run = || {
        let (results, _) = run_cluster(4, |comm| {
            distributed_forces(comm, &space, &sys, &rho_e, Some(GridShape::new(2, 2, 1)))
                .expect("dist forces")
        });
        results
    };
    let (a, b) = (run(), run());
    for (r, f) in a.iter().enumerate() {
        for (ai, (fa, f0)) in f.iter().zip(a[0].iter()).enumerate() {
            for k in 0..3 {
                assert_eq!(
                    fa[k].to_bits(),
                    f0[k].to_bits(),
                    "rank {r} atom {ai} axis {k} differs from rank 0 within one run"
                );
            }
        }
    }
    for (r, (fa, fb)) in a.iter().zip(b.iter()).enumerate() {
        for (ai, (va, vb)) in fa.iter().zip(fb.iter()).enumerate() {
            for k in 0..3 {
                assert_eq!(
                    va[k].to_bits(),
                    vb[k].to_bits(),
                    "rank {r} atom {ai} axis {k} differs between identical runs"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// dist_relax vs serial relax
// ---------------------------------------------------------------------------

fn relax_system() -> (FeSpace, AtomicSystem) {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    // an off-equilibrium dimer: nonzero forces drive a real FIRE move
    let sys = AtomicSystem::new(vec![
        Atom {
            kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
            pos: [2.1, 3.0, 3.0],
        },
        Atom {
            kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
            pos: [3.9, 3.0, 3.0],
        },
    ]);
    (space, sys)
}

fn relax_scf_cfg() -> ScfConfig {
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

fn fresh_dir(label: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "dft-forces-{label}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

/// A cold (no `checkpoint_dir`, so no warm-start) distributed relaxation must walk the same FIRE
/// trajectory as the serial driver: same step count, matching energies
/// and max-forces at every geometry, final energies to 1e-10 Ha.
#[test]
fn dist_relax_matches_serial_relax_trajectory() {
    let (space, sys) = relax_system();
    let scf_cfg = relax_scf_cfg();
    let fire = RelaxConfig {
        max_steps: 2,
        ..RelaxConfig::default()
    };

    let r_ser = relax(&space, &sys, &Lda, &scf_cfg, &fire).expect("serial relax");
    assert!(r_ser.scf.converged, "serial relax SCF did not converge");

    let dcfg = DistScfConfig::new(scf_cfg);
    let rcfg = DistRelaxConfig { fire };
    let (results, _) = run_cluster(2, |comm| {
        dist_relax(comm, &space, &sys, &Lda, &dcfg, &rcfg, &[KPoint::gamma()]).expect("dist relax")
    });
    for r in &results {
        assert_eq!(
            r.trajectory.len(),
            r_ser.trajectory.len(),
            "trajectory step counts differ"
        );
        assert_eq!(r.converged, r_ser.converged, "convergence verdicts differ");
        for (i, (rec, &(e_ser, fmax_ser))) in
            r.trajectory.iter().zip(r_ser.trajectory.iter()).enumerate()
        {
            let de = (rec.free_energy - e_ser).abs();
            assert!(de <= 1e-8, "step {i}: |dE| = {de:.3e}");
            let df = (rec.fmax - fmax_ser).abs();
            assert!(df <= 1e-8, "step {i}: |d fmax| = {df:.3e}");
        }
        let de = (r.scf.energy.free_energy - r_ser.scf.energy.free_energy).abs();
        assert!(de <= 1e-10, "final relaxed energies differ by {de:.3e}");
        for (ai, (a, b)) in r
            .system
            .atoms
            .iter()
            .zip(r_ser.system.atoms.iter())
            .enumerate()
        {
            for k in 0..3 {
                let dp = (a.pos[k] - b.pos[k]).abs();
                assert!(dp <= 1e-8, "atom {ai} axis {k}: |dx| = {dp:.3e}");
            }
        }
    }
    // replicated trajectory agrees bitwise across the ranks of one run
    for r in &results[1..] {
        for (ra, r0) in r.trajectory.iter().zip(results[0].trajectory.iter()) {
            assert_eq!(ra.free_energy.to_bits(), r0.free_energy.to_bits());
            assert_eq!(ra.fmax.to_bits(), r0.fmax.to_bits());
        }
    }
}

/// With checkpoints enabled, every step after the first must warm-start
/// from the previous step's converged state and reconverge in fewer SCF
/// iterations than the cold first step.
#[test]
fn warm_started_relax_steps_reconverge_faster() {
    let (space, sys) = relax_system();
    let dir = fresh_dir("warm");
    let dcfg = DistScfConfig::new(relax_scf_cfg()).with_checkpoints(&dir, 50);
    let rcfg = DistRelaxConfig {
        fire: RelaxConfig {
            max_steps: 2,
            force_tol: 0.0, // never converges: all steps must execute
            ..RelaxConfig::default()
        },
    };
    let (results, _) = run_cluster(2, |comm| {
        dist_relax(comm, &space, &sys, &Lda, &dcfg, &rcfg, &[KPoint::gamma()]).expect("dist relax")
    });
    for r in &results {
        assert_eq!(r.trajectory.len(), 3, "2 moves = 3 evaluations");
        assert!(!r.trajectory[0].warm_started, "first step must run cold");
        let cold = r.trajectory[0].scf_iterations;
        for (i, rec) in r.trajectory.iter().enumerate().skip(1) {
            assert!(rec.warm_started, "step {i} did not warm-start");
            assert!(rec.scf_iterations > 0, "step {i} performed no iterations");
            assert!(
                rec.scf_iterations < cold,
                "step {i}: warm {} !< cold {cold}",
                rec.scf_iterations
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Restarting on the root of a *finished* relaxation re-evaluates its last
/// geometry and hands back the same trajectory: one record per step (the
/// state on disk already holds the last step's record — it must not be
/// pushed twice), the same positions, the same verdict.
#[test]
fn restart_on_a_finished_relaxation_keeps_one_record_per_step() {
    let (space, sys) = relax_system();
    let dir = fresh_dir("finished");
    let dcfg = DistScfConfig::new(relax_scf_cfg()).with_checkpoints(&dir, 50);
    let rcfg = DistRelaxConfig {
        fire: RelaxConfig {
            max_steps: 2,
            force_tol: 0.0,
            ..RelaxConfig::default()
        },
    };
    let run = |dcfg: &DistScfConfig| {
        let (mut results, _) = run_cluster(2, |comm| {
            dist_relax(comm, &space, &sys, &Lda, dcfg, &rcfg, &[KPoint::gamma()])
                .expect("dist relax")
        });
        results.remove(0)
    };
    let first = run(&dcfg);
    let again = run(&dcfg.clone().with_restart());
    assert_eq!(first.resumed_step, None);
    assert_eq!(again.resumed_step, Some(2));
    assert_eq!(first.trajectory.len(), 3, "2 moves = 3 evaluations");
    assert_eq!(again.trajectory.len(), first.trajectory.len());
    assert_eq!(again.converged, first.converged);
    for (a, b) in again.system.atoms.iter().zip(&first.system.atoms) {
        assert_eq!(a.pos, b.pos);
    }
    for (i, (a, b)) in again.trajectory.iter().zip(&first.trajectory).enumerate() {
        let de = (a.free_energy - b.free_energy).abs();
        assert!(de <= 1e-6, "step {i}: |dE| = {de:.3e}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Velocity-Verlet BO-MD on the dimer: every step after the first
/// warm-starts its SCF, the total energy is conserved to 2e-3 Ha over the
/// run, the replicated trajectory is bit-identical on both ranks of a
/// 2-rank run, and it matches the 1-rank trajectory to 1e-8 (not bitwise:
/// the force quadrature is summed per rank shard, so forces agree across
/// rank counts to ~1e-14, as in `check_force_oracle`).
#[test]
fn bo_md_conserves_energy_and_is_rank_invariant() {
    let (space, sys) = relax_system();
    let mcfg = MdConfig { steps: 4, dt: 0.25 };
    let run = |nranks: usize| {
        let dir = fresh_dir("md");
        let dcfg = DistScfConfig::new(relax_scf_cfg()).with_checkpoints(&dir, 50);
        let (results, _) = run_cluster(nranks, |comm| {
            dist_md(comm, &space, &sys, &Lda, &dcfg, &mcfg, &[KPoint::gamma()]).expect("dist md")
        });
        std::fs::remove_dir_all(&dir).ok();
        results
    };
    let one = run(1).remove(0);
    assert_eq!(one.trajectory.len(), 5, "4 steps = 5 evaluations");
    assert!(!one.trajectory[0].warm_started, "first step must run cold");
    let e0 = one.trajectory[0].total;
    for (i, rec) in one.trajectory.iter().enumerate() {
        assert!(i == 0 || rec.warm_started, "step {i} did not warm-start");
        let drift = (rec.total - e0).abs();
        assert!(drift <= 2e-3, "step {i}: |E_tot - E_tot[0]| = {drift:.3e}");
    }
    assert!(
        one.trajectory[4].kinetic > 0.0,
        "the off-equilibrium dimer must start moving"
    );

    let two = run(2);
    let positions =
        |r: &DistMdResult| -> Vec<[f64; 3]> { r.system.atoms.iter().map(|a| a.pos).collect() };
    let bits = |r: &MdStepRecord| {
        (
            [r.free_energy, r.kinetic, r.total, r.fmax].map(f64::to_bits),
            r.scf_iterations,
            r.warm_started,
        )
    };
    for (i, (a, b)) in two[1].trajectory.iter().zip(&two[0].trajectory).enumerate() {
        assert_eq!(bits(a), bits(b), "step {i} differs between the two ranks");
    }
    assert_eq!(
        positions(&two[1]),
        positions(&two[0]),
        "final positions differ between the two ranks"
    );
    assert_eq!(two[0].trajectory.len(), one.trajectory.len());
    for (i, (a, b)) in two[0].trajectory.iter().zip(&one.trajectory).enumerate() {
        assert_eq!(a.warm_started, b.warm_started, "step {i}");
        for (x, y) in [
            (a.free_energy, b.free_energy),
            (a.kinetic, b.kinetic),
            (a.fmax, b.fmax),
        ] {
            assert!(
                (x - y).abs() <= 1e-8,
                "step {i}: 2 ranks {a:?} vs 1 rank {b:?}"
            );
        }
    }
    let dp = max_component_err(&positions(&two[0]), &positions(&one));
    assert!(
        dp <= 1e-8,
        "final positions: 2 ranks vs 1 rank differ by {dp:.3e}"
    );
}
