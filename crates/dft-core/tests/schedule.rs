//! Schedule-exploration gate: the distributed SCF, the force kernels and
//! the FIRE relaxation built on them must be bit-identical under every
//! seeded message-delivery schedule.
//!
//! The solvers claim determinism *by construction* — collectives
//! accumulate in fixed rank order, ghost harvests fill slots in list
//! order, never arrival order. [`explore_schedules`] checks that claim
//! mechanically: each schedule perturbs send timing and pending-queue
//! order (per-stream FIFO preserved), reruns the oracle, and compares
//! bits against schedule 0. A divergence here means some reduction or
//! assembly picked up arrival order — a silent reproducibility bug the
//! ordinary oracle tests cannot see.
//!
//! Honors `DFT_SCHED_EXPLORE` (`off`/`0` skips, a number overrides the
//! default of 8 schedules) — the same escape hatch `scripts/ci.sh`
//! documents.

use dft_core::cluster::forces::distributed_forces_profiled;
use dft_core::cluster::relax::{dist_relax, DistRelaxConfig};
use dft_core::cluster::scf::{distributed_scf, DistScfConfig};
use dft_core::relax::RelaxConfig;
use dft_core::scf::{KPoint, ScfConfig};
use dft_core::system::{Atom, AtomKind, AtomicSystem};
use dft_core::xc::Lda;
use dft_fem::mesh::Mesh3d;
use dft_fem::space::FeSpace;
use dft_hpc::explore::{explore_schedules, schedules_from_env, SchedulePlan};
use dft_hpc::ClusterOptions;

const NRANKS: usize = 4;
const N_SCHEDULES: usize = 8;

fn parity_system() -> (FeSpace, AtomicSystem) {
    let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
    let sys = AtomicSystem::new(vec![Atom {
        kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
        pos: [3.0, 3.0, 3.0],
    }]);
    (space, sys)
}

/// A short unconverged SCF is enough: bit-comparison across schedules
/// needs identical arithmetic, not a converged answer, and 8 iterations
/// already cross every collective and ghost-exchange path per schedule.
fn short_cfg() -> ScfConfig {
    ScfConfig {
        n_states: 4,
        kt: 0.02,
        tol: 1e-14,
        max_iter: 8,
        cheb_degree: 20,
        first_iter_cf_passes: 3,
        ..ScfConfig::default()
    }
}

#[test]
fn scf_and_forces_are_bit_identical_across_seeded_schedules() {
    let n_schedules = schedules_from_env(N_SCHEDULES);
    if n_schedules == 0 {
        eprintln!("DFT_SCHED_EXPLORE=off: skipping schedule exploration");
        return;
    }
    let (space, sys) = parity_system();
    let dcfg = DistScfConfig::new(short_cfg());

    let fingerprints = explore_schedules(
        NRANKS,
        n_schedules,
        0x5CF0_F0CE,
        SchedulePlan::new,
        &ClusterOptions::default(),
        |comm| {
            let r = distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()])
                .expect("scf under explored schedule");
            let (forces, _) =
                distributed_forces_profiled(comm, &space, &sys, &r.density.values, None)
                    .expect("forces under explored schedule");
            // everything replicated, as bits: any arrival-order sensitivity
            // anywhere in the pipeline shows up as a differing fingerprint
            let mut bits: Vec<u64> = vec![r.energy.free_energy.to_bits(), r.mu.to_bits()];
            bits.extend(r.eigenvalues.iter().flatten().map(|e| e.to_bits()));
            bits.extend(r.density.values.iter().map(|v| v.to_bits()));
            bits.extend(forces.iter().flatten().map(|f| f.to_bits()));
            bits
        },
    )
    .unwrap_or_else(|d| panic!("distributed SCF/forces are schedule-sensitive: {d}"));

    // and the replicated fingerprint agrees across ranks within a schedule
    for (rank, fp) in fingerprints.iter().enumerate() {
        assert_eq!(
            fp, &fingerprints[0],
            "rank {rank} fingerprint differs from rank 0 within one schedule"
        );
    }
}

/// The mixed-precision path — FP32 products, FP32 boundary exchange — is
/// schedule-invariant too: demotion happens at a fixed pipeline point, not
/// at delivery time.
#[test]
fn fp32_wire_scf_is_bit_identical_across_seeded_schedules() {
    let n_schedules = schedules_from_env(N_SCHEDULES).min(4);
    if n_schedules == 0 {
        eprintln!("DFT_SCHED_EXPLORE=off: skipping schedule exploration");
        return;
    }
    let (space, sys) = parity_system();
    let dcfg = DistScfConfig::new(ScfConfig {
        mixed_precision: true,
        ..short_cfg()
    });
    explore_schedules(
        NRANKS,
        n_schedules,
        0xF32,
        SchedulePlan::new,
        &ClusterOptions::default(),
        |comm| {
            let r = distributed_scf(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()])
                .expect("fp32 scf under explored schedule");
            r.energy.free_energy.to_bits()
        },
    )
    .unwrap_or_else(|d| panic!("FP32-wire SCF is schedule-sensitive: {d}"));
}

/// The relaxation path: two FIRE moves of an off-equilibrium dimer on two
/// ranks — three SCF solves with a force reduction and a replicated
/// integrator step between them — leave the same trajectory, geometry and
/// density bits under every schedule. Cold (no `checkpoint_dir`), so no
/// schedule finds another's warm slot on disk.
#[test]
fn relaxation_is_bit_identical_across_seeded_schedules() {
    let n_schedules = schedules_from_env(N_SCHEDULES);
    if n_schedules == 0 {
        eprintln!("DFT_SCHED_EXPLORE=off: skipping schedule exploration");
        return;
    }
    let (space, _) = parity_system();
    let ion = |x: f64| Atom {
        kind: AtomKind::Pseudo { z: 1.0, r_c: 0.7 },
        pos: [x, 3.0, 3.0],
    };
    let sys = AtomicSystem::new(vec![ion(2.1), ion(3.9)]);
    let dcfg = DistScfConfig::new(short_cfg());
    let rcfg = DistRelaxConfig {
        fire: RelaxConfig {
            max_steps: 2,
            force_tol: 0.0, // never converges: both moves execute
        },
    };
    let fingerprints = explore_schedules(
        2,
        n_schedules,
        0xF12E,
        SchedulePlan::new,
        &ClusterOptions::default(),
        |comm| {
            let r = dist_relax(comm, &space, &sys, &Lda, &dcfg, &rcfg, &[KPoint::gamma()])
                .expect("relaxation under explored schedule");
            assert_eq!(r.trajectory.len(), 3, "2 moves = 3 evaluations");
            let steps = r.trajectory.iter().flat_map(|s| [s.free_energy, s.fmax]);
            let atoms = r.system.atoms.iter().flat_map(|a| a.pos);
            let mut bits: Vec<u64> = steps.chain(atoms).map(f64::to_bits).collect();
            bits.extend(r.scf.density.values.iter().map(|v| v.to_bits()));
            bits
        },
    )
    .unwrap_or_else(|d| panic!("distributed relaxation is schedule-sensitive: {d}"));
    assert_eq!(fingerprints[1], fingerprints[0], "ranks disagree");
}
