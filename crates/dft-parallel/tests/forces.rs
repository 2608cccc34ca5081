//! Oracle tests for the force assembly and the distributed FIRE driver:
//! [`compute_forces`] (the assembly on one rank) against pinned bits, every
//! rank's [`distributed_forces`] output against that 1-rank route on
//! periodic and Dirichlet systems, across rank counts and process-grid
//! shapes, for bitwise run-to-run determinism (L004), the `dist_relax`
//! FIRE trajectory against a pinned golden (one rank) and across rank
//! counts, the `dist_md` velocity-Verlet trajectory against its own golden,
//! for rank invariance and energy conservation, and both through
//! persistence and resume.

use dft_core::forces::compute_forces;
use dft_core::relax::RelaxConfig;
use dft_core::scf::{KPoint, ScfConfig};
use dft_core::system::{Atom, AtomKind, AtomicSystem};
use dft_core::xc::Lda;
use dft_fem::mesh::{Axis, BoundaryCondition, Mesh3d};
use dft_fem::space::FeSpace;
use dft_hpc::comm::run_cluster;
use dft_parallel::{
    dist_md, dist_relax, distributed_forces, distributed_forces_profiled, DistRelaxConfig,
    DistRelaxResult, DistScfConfig, GridShape, MdConfig, RelaxStepRecord,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod common;
use common::assert_ranks_agree;

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

/// The replicated forces of one run are bit-identical on all of its ranks.
fn assert_forces_agree(results: &[Vec<[f64; 3]>], what: &str) {
    let bits = |f: &Vec<[f64; 3]>| f.iter().map(|c| c.map(f64::to_bits)).collect::<Vec<_>>();
    for (r, f) in results.iter().enumerate().skip(1) {
        assert_eq!(bits(f), bits(&results[0]), "{what}: rank {r} vs rank 0");
    }
}

/// Distributed forces at `nranks` (slab grid) against the 1-rank route of
/// the same assembly (`compute_forces`): every rank must agree to 1e-12
/// per component, and with every other rank to the bit.
fn check_force_oracle(space: &FeSpace, sys: &AtomicSystem, rho_e: &[f64], nranks: usize) {
    let f_ref = compute_forces(space, sys, rho_e).expect("serial forces");
    let (results, _) = run_cluster(nranks, |comm| {
        distributed_forces(comm, space, sys, rho_e, None).expect("dist forces")
    });
    for (r, f) in results.iter().enumerate() {
        let e = max_component_err(f, &f_ref);
        assert!(e <= 1e-12, "rank {r}/{nranks}: force error {e:.3e}");
    }
    assert_forces_agree(&results, &format!("{nranks} ranks"));
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
        assert_forces_agree(&results, &shape.to_string());
    }
}

/// The component bits of [`compute_forces`] on the periodic and the
/// Dirichlet oracle system, recorded when the serial assembly was still its
/// own loop: the 1-rank route must return them exactly.
const FORCE_GOLDEN: [[[u64; 3]; 3]; 2] = [
    [
        [0xbff05341fc79894d, 0x3fd39a36640bead2, 0xbfcffc7bfe6a87a6],
        [0x3fe8410364653149, 0x3fb895ec1fdb954a, 0xbfbcf00e6d3f879e],
        [0x3fd0c29f41407c41, 0xbfe32b201dce3f46, 0x3fe3780e512f264a],
    ],
    [
        [0xbff06c7c35e04eec, 0x3fd1c38702e28984, 0xbfcd1ccc41f35222],
        [0x3fe84378d7261294, 0x3fb35650fc25e7c4, 0xbfb6b9e3cbaf3ff0],
        [0x3fcf5c81c174ea76, 0xbfe1e740b4af54e6, 0x3fe232c675b34f3d],
    ],
];

/// `compute_forces` returns the pinned bits, and a 1-rank
/// `distributed_forces_profiled` returns the same bits: serial forces are
/// the 1-rank case of the one assembly.
#[test]
fn compute_forces_returns_the_pinned_golden() {
    let sys = force_system();
    let spaces = [
        FeSpace::new(Mesh3d::periodic_cube(2, 4.0, 3)),
        FeSpace::new(Mesh3d::cube(2, 4.0, 3)),
    ];
    let bits = |f: &[[f64; 3]]| f.iter().map(|c| c.map(f64::to_bits)).collect::<Vec<_>>();
    for (space, golden) in spaces.iter().zip(FORCE_GOLDEN) {
        let rho_e = sys.initial_density(space);
        let f = compute_forces(space, &sys, &rho_e).expect("serial forces");
        assert_eq!(bits(&f), golden.to_vec(), "compute_forces left its golden");
        let (one, _) = run_cluster(1, |comm| {
            distributed_forces_profiled(comm, space, &sys, &rho_e, None).expect("1-rank forces")
        });
        assert_eq!(
            bits(&one[0].0),
            golden.to_vec(),
            "1-rank route vs compute_forces"
        );
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
    assert_forces_agree(&a, "2x2x1");
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
// dist_relax: the pinned FIRE trajectory, 1 rank as the oracle of 2
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

/// The FIRE trajectory of [`relax_system`] under [`relax_scf_cfg`], two
/// moves = three evaluations of (free energy, max force component), and the
/// dimer's final x coordinates — recorded from the serial
/// `dft_core::relax::relax` driver by the commit that retired it (a 1-rank
/// `dist_relax` printed the same bits).
const FIRE_GOLDEN: [(f64, f64); 3] = [
    (-1.1053980275996576, 0.2178578669904553),
    (-1.111474578910037, 0.22840114855353144),
    (-1.124805962612571, 0.24939653180391982),
];
const FIRE_GOLDEN_X: [f64; 2] = [2.0584926948416116, 3.9415073051584026];

/// The 1-rank BO-MD trajectory of [`relax_system`] under [`relax_scf_cfg`]
/// (4 velocity-Verlet steps of 0.25 = five evaluations of (free energy,
/// kinetic energy, max force component)) and the dimer's final x
/// coordinates — recorded from `dist_md` before it shared the relaxation's
/// trajectory loop.
const MD_GOLDEN: [(f64, f64, f64); 5] = [
    (-1.1053980275996576, 0.0, 0.2178578669904553),
    (
        -1.1084004063363606,
        0.0030387720963253075,
        0.22314260258396648,
    ),
    (
        -1.1179941460446348,
        0.012745802092273058,
        0.2390353896672257,
    ),
    (-1.1359928947271987, 0.03093169169338097, 0.2647787811734192),
    (
        -1.1653725041302039,
        0.06050404497178373,
        0.29603418585654623,
    ),
];
const MD_GOLDEN_X: [f64; 2] = [1.9845004311099816, 4.015499568890028];

/// The replicated trajectory, geometry and final SCF of one relaxation are
/// bit-identical on all of its ranks.
fn assert_relax_ranks_agree(results: &[DistRelaxResult], what: &str) {
    assert_ranks_agree(results.iter().map(|r| &r.scf), what);
    let bits = |r: &DistRelaxResult| {
        let steps: Vec<_> = r
            .trajectory
            .iter()
            .map(|s| (s.free_energy.to_bits(), s.fmax.to_bits(), s.scf_iterations))
            .collect();
        let atoms: Vec<_> = r
            .system
            .atoms
            .iter()
            .map(|a| a.pos.map(f64::to_bits))
            .collect();
        (steps, atoms, r.converged)
    };
    for (rank, r) in results.iter().enumerate().skip(1) {
        assert_eq!(bits(r), bits(&results[0]), "{what}: rank {rank} vs rank 0");
    }
}

/// One cold (no `checkpoint_dir`, so no warm start) relaxation on `nranks`
/// ranks; the 1-rank run is the oracle of the FIRE tests below.
fn relax_cold(
    nranks: usize,
    space: &FeSpace,
    sys: &AtomicSystem,
    scf_cfg: ScfConfig,
    fire: RelaxConfig,
) -> Vec<DistRelaxResult> {
    let (dcfg, rcfg) = (DistScfConfig::new(scf_cfg), DistRelaxConfig { fire });
    let (results, _) = run_cluster(nranks, |comm| {
        dist_relax(comm, space, sys, &Lda, &dcfg, &rcfg, &[KPoint::gamma()]).expect("dist relax")
    });
    results
}

/// A cold relaxation walks the pinned FIRE trajectory: one rank lands on
/// the golden (1e-9: the bits are this host's SIMD tier's), two ranks on the
/// 1-rank run to 1e-8 at every geometry (the force quadrature is summed per
/// rank shard) and to 1e-10 Ha at the end, and the replicated records agree
/// bitwise across the ranks of one run.
#[test]
fn dist_relax_walks_the_pinned_fire_trajectory() {
    let (space, sys) = relax_system();
    let fire = RelaxConfig {
        max_steps: 2,
        ..RelaxConfig::default()
    };
    let one = relax_cold(1, &space, &sys, relax_scf_cfg(), fire.clone()).remove(0);
    assert!(one.scf.converged, "1-rank relax SCF did not converge");
    assert!(!one.converged, "two moves do not relax the dimer");
    assert_eq!(one.trajectory.len(), FIRE_GOLDEN.len());
    for (i, (rec, (e, fmax))) in one.trajectory.iter().zip(FIRE_GOLDEN).enumerate() {
        let (de, df) = ((rec.free_energy - e).abs(), (rec.fmax - fmax).abs());
        assert!(
            de <= 1e-9 && df <= 1e-9,
            "step {i}: |dE| {de:.3e}, |d fmax| {df:.3e}"
        );
    }
    for (atom, x) in one.system.atoms.iter().zip(FIRE_GOLDEN_X) {
        assert!((atom.pos[0] - x).abs() <= 1e-9, "{:?} vs x = {x}", atom.pos);
    }

    let dcfg = DistScfConfig::new(relax_scf_cfg());
    let rcfg = DistRelaxConfig { fire };
    let (results, _) = run_cluster(2, |comm| {
        dist_relax(comm, &space, &sys, &Lda, &dcfg, &rcfg, &[KPoint::gamma()]).expect("dist relax")
    });
    for r in &results {
        assert_eq!(
            r.trajectory.len(),
            one.trajectory.len(),
            "step counts differ"
        );
        assert_eq!(r.converged, one.converged, "convergence verdicts differ");
        for (i, (rec, want)) in r.trajectory.iter().zip(&one.trajectory).enumerate() {
            let de = (rec.free_energy - want.free_energy).abs();
            assert!(de <= 1e-8, "step {i}: |dE| = {de:.3e}");
            let df = (rec.fmax - want.fmax).abs();
            assert!(df <= 1e-8, "step {i}: |d fmax| = {df:.3e}");
        }
        let de = (r.scf.energy.free_energy - one.scf.energy.free_energy).abs();
        assert!(de <= 1e-10, "final relaxed energies differ by {de:.3e}");
        for (ai, (a, b)) in r.system.atoms.iter().zip(&one.system.atoms).enumerate() {
            for k in 0..3 {
                let dp = (a.pos[k] - b.pos[k]).abs();
                assert!(dp <= 1e-8, "atom {ai} axis {k}: |dx| = {dp:.3e}");
            }
        }
    }
    assert_relax_ranks_agree(&results, "cold");
}

/// A compressed dimer on a mesh graded over the whole bond region: FIRE
/// lengthens the bond, lowers the energy and shrinks the force.
#[test]
fn compressed_dimer_expands_and_lowers_energy() {
    let l = 12.0;
    let c = l / 2.0;
    let ax = || {
        Axis::graded(
            0.0,
            l,
            0.7,
            2.5,
            &[c - 1.5, c, c + 1.5],
            2.5,
            BoundaryCondition::Dirichlet,
        )
    };
    let ay = || Axis::graded(0.0, l, 0.7, 2.5, &[c], 2.5, BoundaryCondition::Dirichlet);
    let space = FeSpace::new(Mesh3d::new([ax(), ay(), ay()], 3));
    let d0 = 1.0; // compressed
    let ion = |x: f64| Atom {
        kind: AtomKind::Pseudo { z: 2.0, r_c: 0.6 },
        pos: [x, c, c],
    };
    let sys = AtomicSystem::new(vec![ion(c - d0 / 2.0), ion(c + d0 / 2.0)]);
    let scf_cfg = ScfConfig {
        n_states: 5,
        max_iter: 40,
        ..relax_scf_cfg()
    };
    let fire = RelaxConfig {
        max_steps: 8,
        force_tol: 2e-2,
    };
    let out = relax_cold(1, &space, &sys, scf_cfg, fire).remove(0);
    let d_final = (out.system.atoms[1].pos[0] - out.system.atoms[0].pos[0]).abs();
    assert!(d_final > d0 + 0.05, "bond {d0} -> {d_final}");
    let (first, last) = (out.trajectory[0], *out.trajectory.last().unwrap());
    assert!(
        last.free_energy < first.free_energy,
        "{first:?} -> {last:?}"
    );
    assert!(last.fmax < first.fmax, "{first:?} -> {last:?}");
}

/// A run whose force is below tolerance only at the evaluation after the
/// last allowed move must still report converged, with that evaluation in
/// the trajectory. `max_steps: 0` isolates the post-loop path.
#[test]
fn final_step_convergence_is_evaluated() {
    let l = 10.0;
    let space = FeSpace::new(Mesh3d::cube(4, l, 4));
    let sys = AtomicSystem::new(vec![Atom {
        kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
        pos: [l / 2.0; 3],
    }]);
    let scf_cfg = ScfConfig {
        max_iter: 40,
        ..relax_scf_cfg()
    };
    let fire = RelaxConfig {
        max_steps: 0,
        force_tol: 5e-3, // symmetric atom: force ~ 0
    };
    let out = relax_cold(1, &space, &sys, scf_cfg, fire).remove(0);
    assert_eq!(out.trajectory.len(), 1, "final evaluation missing");
    assert!(out.converged, "fmax {} not judged", out.trajectory[0].fmax);
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
        },
    };
    let (results, _) = run_cluster(2, |comm| {
        dist_relax(comm, &space, &sys, &Lda, &dcfg, &rcfg, &[KPoint::gamma()]).expect("dist relax")
    });
    assert_relax_ranks_agree(&results, "warm");
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
        },
    };
    let run = |dcfg: &DistScfConfig| {
        let (mut results, _) = run_cluster(2, |comm| {
            dist_relax(comm, &space, &sys, &Lda, dcfg, &rcfg, &[KPoint::gamma()])
                .expect("dist relax")
        });
        assert_relax_ranks_agree(&results, "restartable");
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

/// A fresh relaxation (`restart` unset) on a root an earlier run used
/// starts cold: it reads neither that run's warm slot nor its trajectory
/// state, and walks the earlier run's records bit for bit.
#[test]
fn fresh_relaxation_on_a_reused_root_starts_cold() {
    let (space, sys) = relax_system();
    let dir = fresh_dir("reused");
    let dcfg = DistScfConfig::new(relax_scf_cfg()).with_checkpoints(&dir, 0);
    let rcfg = DistRelaxConfig {
        fire: RelaxConfig {
            max_steps: 1,
            force_tol: 0.0,
        },
    };
    let run = || {
        let (mut results, _) = run_cluster(2, |comm| {
            dist_relax(comm, &space, &sys, &Lda, &dcfg, &rcfg, &[KPoint::gamma()])
                .expect("dist relax")
        });
        assert_relax_ranks_agree(&results, "reused root");
        results.remove(0)
    };
    let (first, second) = (run(), run());
    assert!(
        !second.trajectory[0].warm_started,
        "a fresh run warm-started from an earlier run's slot"
    );
    assert_eq!(second.resumed_step, None);
    let bits = |r: &DistRelaxResult| -> Vec<_> {
        let steps = r.trajectory.iter();
        steps
            .map(|s| (s.free_energy.to_bits(), s.scf_iterations, s.warm_started))
            .collect()
    };
    assert_eq!(bits(&second), bits(&first));
    std::fs::remove_dir_all(&dir).ok();
}

/// One BO-MD run of `steps` on `nranks` ranks under `dcfg`.
fn md_run(nranks: usize, dcfg: &DistScfConfig, steps: usize) -> Vec<DistRelaxResult> {
    let (space, sys) = relax_system();
    let mcfg = MdConfig { steps, dt: 0.25 };
    let (results, _) = run_cluster(nranks, |comm| {
        dist_md(comm, &space, &sys, &Lda, dcfg, &mcfg, &[KPoint::gamma()]).expect("dist md")
    });
    results
}

/// Velocity-Verlet BO-MD on the dimer: one rank walks the pinned golden
/// (1e-9, as FIRE's), every step after the first warm-starts its SCF, the
/// total energy is conserved to 2e-3 Ha over the run, the replicated
/// trajectory is bit-identical on both ranks of a 2-rank run, and it
/// matches the 1-rank trajectory to 1e-8 (not bitwise: the force
/// quadrature is summed per rank shard, so forces agree across rank counts
/// to ~1e-14, as in `check_force_oracle`).
#[test]
fn bo_md_conserves_energy_and_is_rank_invariant() {
    let run = |nranks: usize| {
        let dir = fresh_dir("md");
        let dcfg = DistScfConfig::new(relax_scf_cfg()).with_checkpoints(&dir, 50);
        let results = md_run(nranks, &dcfg, 4);
        std::fs::remove_dir_all(&dir).ok();
        results
    };
    let one = run(1).remove(0);
    assert_eq!(
        one.trajectory.len(),
        MD_GOLDEN.len(),
        "4 steps = 5 evaluations"
    );
    for (i, (rec, (e, kin, fmax))) in one.trajectory.iter().zip(MD_GOLDEN).enumerate() {
        let d = [rec.free_energy - e, rec.kinetic - kin, rec.fmax - fmax].map(f64::abs);
        assert!(
            d.iter().all(|&x| x <= 1e-9),
            "step {i}: |d(E, K, fmax)| {d:?}"
        );
    }
    for (atom, x) in one.system.atoms.iter().zip(MD_GOLDEN_X) {
        assert!((atom.pos[0] - x).abs() <= 1e-9, "{:?} vs x = {x}", atom.pos);
    }
    assert!(!one.trajectory[0].warm_started, "first step must run cold");
    let e0 = one.trajectory[0].total();
    for (i, rec) in one.trajectory.iter().enumerate() {
        assert!(i == 0 || rec.warm_started, "step {i} did not warm-start");
        let drift = (rec.total() - e0).abs();
        assert!(drift <= 2e-3, "step {i}: |E_tot - E_tot[0]| = {drift:.3e}");
    }
    assert!(
        one.trajectory[4].kinetic > 0.0,
        "the off-equilibrium dimer must start moving"
    );

    let two = run(2);
    let positions =
        |r: &DistRelaxResult| -> Vec<[f64; 3]> { r.system.atoms.iter().map(|a| a.pos).collect() };
    let bits = |r: &RelaxStepRecord| {
        (
            [r.free_energy, r.kinetic, r.total(), r.fmax].map(f64::to_bits),
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

/// BO-MD persists and resumes as FIRE does: a 2-step run, then a restart
/// on its root asking for 4 steps, resumes at step 2 with the two loaded
/// records bit for bit, evaluates step 2 again, and lands on an
/// uninterrupted 4-step run — one record per step, energies within 1e-6
/// and final positions within 1e-8. Step 2's second SCF reconverges from
/// its own converged state, so the two runs' step-2 forces agree only to
/// the SCF tolerance, which is tightened here to keep the last two moves
/// within the position bound.
#[test]
fn bo_md_resumes_from_its_persisted_state() {
    let (dir, straight_dir) = (fresh_dir("md-resume"), fresh_dir("md-straight"));
    let scf_cfg = ScfConfig {
        tol: 1e-9,
        ..relax_scf_cfg()
    };
    let dcfg = DistScfConfig::new(scf_cfg.clone()).with_checkpoints(&dir, 50);
    let run = |dcfg: &DistScfConfig, steps| {
        let mut results = md_run(2, dcfg, steps);
        assert_relax_ranks_agree(&results, "md");
        results.remove(0)
    };
    let head = run(&dcfg, 2);
    let resumed = run(&dcfg.clone().with_restart(), 4);
    let straight = run(
        &DistScfConfig::new(scf_cfg).with_checkpoints(&straight_dir, 50),
        4,
    );
    assert_eq!(head.resumed_step, None);
    assert_eq!(resumed.resumed_step, Some(2));
    let bits = |r: &RelaxStepRecord| {
        (
            [r.free_energy, r.kinetic, r.fmax].map(f64::to_bits),
            r.scf_iterations,
            r.warm_started,
        )
    };
    for i in 0..2 {
        assert_eq!(
            bits(&resumed.trajectory[i]),
            bits(&head.trajectory[i]),
            "loaded record {i}"
        );
    }
    assert!(
        resumed.trajectory[2].warm_started,
        "the resumed step was not evaluated again from its warm slot"
    );
    assert_eq!(resumed.trajectory.len(), straight.trajectory.len());
    for (i, (a, b)) in resumed
        .trajectory
        .iter()
        .zip(&straight.trajectory)
        .enumerate()
    {
        for (x, y) in [(a.free_energy, b.free_energy), (a.kinetic, b.kinetic)] {
            assert!((x - y).abs() <= 1e-6, "step {i}: {a:?} vs {b:?}");
        }
    }
    for (a, b) in resumed.system.atoms.iter().zip(&straight.system.atoms) {
        let dp = max_component_err(&[a.pos], &[b.pos]);
        assert!(dp <= 1e-8, "final positions differ by {dp:.3e}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&straight_dir).ok();
}
