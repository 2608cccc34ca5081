//! The self-consistent field driver (the paper's Eq. 1 loop) and the total
//! energy assembly.
//!
//! There is one SCF iteration, `scf_loop`, and one solver runs it: a rank
//! of a cluster ([`crate::cluster::scf`]), whose seam knows the rank's
//! share of rows, bands and k-points and how to reduce across ranks.
//! [`scf`] is that solver on a one-rank cluster. One SCF iteration:
//!
//! 1. electrostatics — **one** FE Poisson solve for the potential of
//!    `rho_ion - rho_e` (Gaussian-smeared nuclei make `v_N` and `v_H` a
//!    single neutral solve, valid for isolated and periodic systems);
//! 2. exchange-correlation — any [`crate::xc::XcFunctional`] (LDA, PBE,
//!    MLXC, hidden truth);
//! 3. ChFES per k-point (complex Bloch path via phases) — serially in
//!    k-point *lanes*: on a rank that holds the whole problem up to one
//!    per thread, side by side on equal shares of the thread budget;
//! 4. Fermi-Dirac occupations with a common chemical potential;
//! 5. density build, Anderson mixing, convergence check on the density
//!    residual.
//!
//! The total (free) energy uses the band-energy identity
//! `T_s = sum f eps - integral rho_out v_eff_in` (exact for Ritz pairs of
//! the discrete Hamiltonian), Gaussian-nucleus electrostatics with analytic
//! self-energy and short-ranged ion-ion corrections, and the smearing
//! entropy.

use crate::chebyshev::{
    ks_eigensolve, lanczos_start, random_subspace, ChfesOptions, LANCZOS_STEPS,
};
use crate::cluster::operator::WireScalar;
use crate::cluster::reduce::CommVolume;
use crate::cluster::scf::{distributed_scf, ClusterSeam, DistScfConfig, ScfError};
use crate::forces::ForceError;
use crate::mixing::AndersonMixer;
use crate::occupation::{fermi_occupations, occupied_states, DENSITY_CUTOFF};
use crate::system::AtomicSystem;
use crate::xc::{evaluate_xc, XcFunctional};
use dft_fem::field::NodalField;
use dft_fem::mesh::BoundaryCondition;
use dft_fem::poisson::{fdm_apply_flops, solve_poisson, PoissonBc};
use dft_fem::space::FeSpace;
use dft_hpc::comm::run_cluster;
use dft_hpc::profile::{Phase, PhaseScope, Profile, ScfProfile};
use dft_hpc::threads::with_threads;
use dft_linalg::matrix::Matrix;
use dft_linalg::scalar::{Real, Scalar, C64};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// One Brillouin-zone sampling point (fractional coordinates along each
/// axis; only periodic axes matter) with its weight.
#[derive(Clone, Copy, Debug)]
pub struct KPoint {
    /// Fractional k along each axis (in `[-1/2, 1/2]`).
    pub frac: [f64; 3],
    /// Quadrature weight (weights must sum to 1 across the set).
    pub weight: f64,
}

impl KPoint {
    /// The Γ point with unit weight.
    pub fn gamma() -> Self {
        Self {
            frac: [0.0; 3],
            weight: 1.0,
        }
    }
    /// True if this is exactly Γ.
    pub fn is_gamma(&self) -> bool {
        // dftlint:allow(L004, reason="exact Gamma-point sentinel: frac is set to literal 0.0, never computed")
        self.frac.iter().all(|&f| f == 0.0)
    }
}

/// Anderson mixing fraction of every SCF.
const MIXING_ALPHA: f64 = 0.3;

/// SCF configuration.
#[derive(Clone, Debug)]
pub struct ScfConfig {
    /// Number of Kohn-Sham states per k-point.
    pub n_states: usize,
    /// Fermi-Dirac smearing temperature (Ha).
    pub kt: f64,
    /// Convergence tolerance on the density residual
    /// `||rho_out - rho_in||_L2 / N_e`.
    pub tol: f64,
    /// Maximum SCF iterations.
    pub max_iter: usize,
    /// Anderson history depth.
    pub anderson_depth: usize,
    /// Chebyshev filter degree of every filtered column per ChFES cycle.
    /// After a k-point's first solve each filter block runs one step and
    /// then only its columns occupied at the last chemical potential run
    /// on to this degree (see [`crate::chebyshev::chfes_reduced`]).
    pub cheb_degree: usize,
    /// The most ChFES cycles of a k-point's first solve (the paper's
    /// "multiple passes of Chebyshev filtering in the initial SCF step"):
    /// it stops earlier once its occupied states have converged (see
    /// [`crate::chebyshev::ks_eigensolve`]).
    pub first_iter_cf_passes: usize,
    /// Filter wavefunction block size `B_f`: the cap on the columns the
    /// Chebyshev filter carries at once (a local Hamiltonian carries one
    /// column block per thread below it) and the FP64 diagonal block of
    /// the mixed-precision subspace products.
    pub block_size: usize,
    /// Mixed-precision CholGS / RR (Sec. 5.4.2).
    pub mixed_precision: bool,
    /// Relative tolerance of the Poisson CG solves.
    pub poisson_tol: f64,
    /// RNG seed for the initial subspace.
    pub seed: u64,
    /// Collect the per-phase Table-3 profile of the SCF loop into
    /// [`ScfResult::profile`]. Off by default; when off the solver path
    /// carries no measurable instrumentation overhead.
    pub profile: bool,
}

impl Default for ScfConfig {
    fn default() -> Self {
        Self {
            n_states: 8,
            kt: 0.01,
            tol: 1e-6,
            max_iter: 40,
            anderson_depth: 6,
            cheb_degree: 40,
            first_iter_cf_passes: 4,
            block_size: 64,
            mixed_precision: false,
            poisson_tol: 1e-10,
            seed: 42,
            profile: false,
        }
    }
}

/// Decomposed total energy (Hartree).
#[derive(Clone, Copy, Debug, Default)]
pub struct TotalEnergy {
    /// Band (eigenvalue) energy `sum_k w_k sum_i f_i eps_i`.
    pub band: f64,
    /// Kohn-Sham kinetic energy `T_s`.
    pub kinetic: f64,
    /// Total electrostatic energy (electron-electron + electron-ion +
    /// ion-ion), Gaussian-corrected.
    pub electrostatic: f64,
    /// Exchange-correlation energy.
    pub xc: f64,
    /// Smearing entropy contribution `-kT S`.
    pub entropy_term: f64,
    /// Internal energy `T_s + E_es + E_xc`.
    pub total: f64,
    /// Free energy `total + entropy_term` (the variational quantity).
    pub free_energy: f64,
}

/// One rank's SCF outcome ([`scf`]'s is its one-rank cluster's). Every
/// field but `profile` and `comm` is replicated: bit-identical across the
/// ranks of a run. `profile` and `comm` are per-rank.
pub struct ScfResult {
    /// Energy decomposition.
    pub energy: TotalEnergy,
    /// Eigenvalues per k-point (ascending).
    pub eigenvalues: Vec<Vec<f64>>,
    /// Occupations per k-point (0..2 with spin degeneracy).
    pub occupations: Vec<Vec<f64>>,
    /// Chemical potential.
    pub mu: f64,
    /// Converged electron density, full nodal field.
    pub density: NodalField,
    /// Final XC potential (nodal).
    pub vxc: Vec<f64>,
    /// Final effective potential (nodal).
    pub v_eff: Vec<f64>,
    /// SCF iterations performed, counted from the snapshot label a run
    /// resumed from.
    pub iterations: usize,
    /// Whether the density residual met the tolerance.
    pub converged: bool,
    /// The snapshot iteration this run resumed from (`None` = fresh start).
    pub resumed_from: Option<usize>,
    /// Residual per iteration.
    pub residual_history: Vec<f64>,
    /// This rank's measured per-phase Table-3 breakdown of the SCF loop
    /// (`Some` iff [`ScfConfig::profile`] was set).
    pub profile: Option<ScfProfile>,
    /// Cluster-wide communication volume accrued over this rank's SCF loop
    /// (the [`run_cluster`] counters are shared).
    pub comm: CommVolume,
}

/// Analytic FLOP count of a Poisson solve that took `cg_iterations`: CG
/// starts from zero (the initial residual is the right-hand side, no
/// apply), so it applies the stiffness once per iteration, and the
/// tensor-product preconditioner once up front and once per iteration that
/// does not converge; each iteration adds the BLAS-1 work (two dots, a
/// norm, three axpys ≈ 10 flops per DoF).
fn poisson_flops(space: &FeSpace, cg_iterations: usize) -> u64 {
    let it = cg_iterations as u64;
    it * space.stiffness_apply_flops::<f64>(1)
        + it.max(1) * fdm_apply_flops(space)
        + it * 10 * space.ndofs() as u64
}

/// Main-memory traffic of the same solve: ten vector streams for CG's
/// set-up and for each iteration (the five working vectors once each way),
/// fourteen per preconditioner apply (six contractions and the spectral
/// scale, each read once and written once).
fn poisson_bytes(space: &FeSpace, cg_iterations: usize) -> u64 {
    let it = cg_iterations as u64;
    ((it + 1) * 10 + it.max(1) * 14) * space.ndofs() as u64 * std::mem::size_of::<f64>() as u64
}

/// The boundary treatment of the electrostatic solves on `space`.
fn poisson_bc_of(space: &FeSpace) -> PoissonBc<'static> {
    let all_periodic = space
        .mesh
        .axes
        .iter()
        .all(|a| a.bc() == BoundaryCondition::Periodic);
    if all_periodic {
        PoissonBc::Periodic
    } else {
        // neutral systems: monopole-free far field
        PoissonBc::Dirichlet(&|_| 0.0)
    }
}

/// The one electrostatic solve for the potential of `rho_charge` (the
/// SCF's two per iteration and the forces' one), booked under EP when
/// `profile` is given.
pub(crate) fn solve_electrostatics(
    space: &FeSpace,
    rho_charge: &[f64],
    tol: f64,
    profile: Option<&Profile>,
) -> Result<Vec<f64>, ForceError> {
    let mut scope = PhaseScope::new(profile, Phase::Ep);
    let (phi, stats) = solve_poisson(space, rho_charge, poisson_bc_of(space), tol, 20000);
    scope.add_flops(poisson_flops(space, stats.iterations));
    scope.add_bytes(poisson_bytes(space, stats.iterations));
    if !stats.converged {
        return Err(ForceError::PoissonDiverged {
            iterations: stats.iterations,
            residual: stats.final_residuals.iter().copied().fold(0.0, f64::max),
        });
    }
    Ok(phi)
}

/// Run the SCF on `space` for `system` with functional `xc` at the given
/// k-points: [`distributed_scf`] on a one-rank cluster, on the calling
/// thread and its thread budget, without checkpoints. Panics if an
/// electrostatic solve diverges.
pub fn scf(
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    cfg: &ScfConfig,
    kpts: &[KPoint],
) -> ScfResult {
    let cfg = DistScfConfig::new(cfg.clone());
    let (mut ranks, _) = run_cluster(1, |comm| {
        distributed_scf(comm, space, system, xc, &cfg, kpts)
    });
    match ranks.remove(0) {
        Ok(r) => r,
        // with no peer, snapshot directory or preemption token, only a
        // diverged Poisson solve stops the rank
        Err(e) => panic!("{e}"),
    }
}

/// Scalars the SCF loop runs on: [`Scalar`] plus the imaginary unit the
/// Bloch phases are built from.
pub(crate) trait ScalarExt: Scalar {
    /// The imaginary unit (panics for real scalars).
    fn imag() -> Self;
}
impl ScalarExt for f64 {
    fn imag() -> Self {
        panic!("no imaginary unit in f64")
    }
}
impl ScalarExt for C64 {
    fn imag() -> Self {
        C64::I
    }
}

/// The iterate [`scf_loop`] carries from one SCF iteration to the next —
/// exactly what a restart snapshot has to capture.
pub(crate) struct ScfState<T: Scalar> {
    /// Iteration index the loop starts at (nonzero after a restart).
    pub start_iter: usize,
    /// Input density of the next iteration (nodal, replicated).
    pub rho_in: Vec<f64>,
    /// Chemical potential of the last completed iteration.
    pub mu: f64,
    /// Anderson mixer with its residual history.
    pub mixer: AndersonMixer,
    /// Per-k filter window (`a0` below the wanted spectrum, `a` just
    /// above it); `None` until the k-point has been solved once.
    pub filter_window: Vec<Option<(f64, f64)>>,
    /// Density residual per completed iteration.
    pub residual_history: Vec<f64>,
    /// This rank's rows of the wavefunctions of its k-points, indexed
    /// from the first k-point the seam assigns it.
    pub psi: Vec<Matrix<T>>,
}

/// The rows of `full` that `seam`'s rank stores.
pub(crate) fn restrict_rows<T: Scalar>(seam: &ClusterSeam<'_, '_>, full: &Matrix<T>) -> Matrix<T> {
    let mut local = Matrix::<T>::zeros(seam.n_rows(), full.ncols());
    for j in 0..full.ncols() {
        let src = full.col(j);
        for (l, dst) in local.col_mut(j).iter_mut().enumerate() {
            *dst = src[seam.dof_of_row(l)];
        }
    }
    local
}

impl<T: Scalar> ScfState<T> {
    /// The cold start: superposed atomic densities, an empty mixer, and a
    /// random subspace seeded by the *global* k index — every layout of
    /// ranks starts from the same wavefunctions and keeps its own rows.
    pub(crate) fn new(
        space: &FeSpace,
        system: &AtomicSystem,
        cfg: &ScfConfig,
        kpts: &[KPoint],
        seam: &ClusterSeam<'_, '_>,
    ) -> Self {
        let nd = space.ndofs();
        assert!(
            cfg.n_states * 2 >= system.n_electrons().ceil() as usize,
            "not enough states"
        );
        assert!(cfg.n_states <= nd, "more states than DoFs");
        let wsum: f64 = kpts.iter().map(|k| k.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-10, "k-point weights must sum to 1");

        // each rank's weighted dots are partial sums over the nodes it
        // owns; the Gram reduction reassembles the serial Gram
        let weights = space
            .mass_diag()
            .iter()
            .enumerate()
            .map(|(i, &w)| if seam.dist.owns_node(i) { w } else { 0.0 })
            .collect();
        let (k0, k1) = seam.kpoints(kpts.len());
        Self {
            start_iter: 0,
            rho_in: system.initial_density(space),
            mu: 0.0,
            mixer: AndersonMixer::new(MIXING_ALPHA, cfg.anderson_depth, weights),
            filter_window: vec![None; kpts.len()],
            residual_history: Vec::new(),
            psi: (k0..k1)
                .map(|ik| {
                    let full = random_subspace::<T>(nd, cfg.n_states, cfg.seed + ik as u64);
                    restrict_rows(seam, &full)
                })
                .collect(),
        }
    }
}

/// The SCF iteration — the only one in the workspace. Runs from `state`
/// (see [`ScfState::new`]) until the density residual meets `cfg.tol` or
/// `cfg.max_iter` is reached; `seam` supplies what depends on how the
/// problem is spread over ranks.
///
/// The k-point eigensolves of an iteration run in
/// [`ClusterSeam::kpoint_lanes`] lanes on the one shared pool, each under a
/// cap of `threads / lanes` and with its own operator; a k-point keeps its
/// Lanczos start, filter window and eigenvalue slot, and its bits
/// do not depend on its thread count, so every lane shape retraces the
/// one-after-another solve. Profiled lanes fold into the iteration's
/// bucket ([`Profile::fold_lanes`]); the seam's failure probe runs after
/// the lanes join.
pub(crate) fn scf_loop<T: WireScalar + ScalarExt>(
    space: &FeSpace,
    system: &AtomicSystem,
    xc: &dyn XcFunctional,
    cfg: &ScfConfig,
    kpts: &[KPoint],
    seam: &ClusterSeam<'_, '_>,
    mut st: ScfState<T>,
) -> Result<ScfResult, ScfError> {
    let nn = space.nnodes();
    let n_rows = seam.n_rows();
    let n_el = system.n_electrons();
    let occupied = occupied_states(n_el, cfg.n_states);
    let rho_ion = system.ion_density(space);
    let (k0, k1) = seam.kpoints(kpts.len());

    let mut result_energy = TotalEnergy::default();
    let mut eigenvalues: Vec<Vec<f64>> = vec![vec![]; kpts.len()];
    let mut occupations: Vec<Vec<f64>> = vec![vec![]; kpts.len()];
    let mut vxc_nodes = vec![0.0; nn];
    let mut v_eff = vec![0.0; nn];
    let mut converged = false;
    let mut iterations = 0;
    let mut rho_out = st.rho_in.clone();
    let e_ii_corr = system.ion_ion_correction(space);
    let kweights: Vec<f64> = kpts.iter().map(|k| k.weight).collect();
    let opts = ChfesOptions {
        cheb_degree: cfg.cheb_degree,
        block_size: cfg.block_size,
        mixed_precision: cfg.mixed_precision,
    };

    // Profiled region: the SCF loop proper (setup above is excluded from
    // the total so phase times can be checked against it).
    let profile_store = cfg.profile.then(Profile::new);
    let profile = profile_store.as_ref();

    for iter in st.start_iter..cfg.max_iter {
        iterations = iter + 1;
        if let Some(p) = profile {
            p.begin_iteration();
        }
        seam.iteration_top(iter, &st, profile)?;

        // ---- effective potential from rho_in (replicated) --------------
        let rho_charge: Vec<f64> = (0..nn).map(|i| rho_ion[i] - st.rho_in[i]).collect();
        // the solve is replicated, so every rank takes this exit together
        let diverged = |_| ScfError::PoissonDiverged { iteration: iter };
        let phi =
            solve_electrostatics(space, &rho_charge, cfg.poisson_tol, profile).map_err(diverged)?;
        {
            let _scope = PhaseScope::new(profile, Phase::Dh);
            let rho_in_field = NodalField::from_values(space, st.rho_in.clone());
            vxc_nodes = evaluate_xc(space, &rho_in_field, xc).vxc;
            for i in 0..nn {
                v_eff[i] = -phi[i] + vxc_nodes[i];
            }
        }

        // ---- eigenproblem per k-point of this rank, in lanes -----------
        let passes = if iter == 0 {
            cfg.first_iter_cf_passes
        } else {
            1
        };
        // a solved k-point filters only what the last occupations see
        let mu = Some(st.mu);
        #[cfg(test)]
        let mu = mu.filter(|_| !tests::WITHHOLD_MU.get());
        let threads = rayon::current_num_threads();
        #[cfg(test)]
        tests::LOOP_THREADS.set(threads);
        let lanes = seam.kpoint_lanes(k1 - k0);
        let share = threads / lanes;
        // one lane records into the loop's profile; side-by-side lanes each
        // into their own, folded into a breakdown of the region's wall time
        let split = lanes > 1 && profile.is_some();
        let region = split.then(Instant::now);
        let slots = st.psi.iter_mut().zip(&mut st.filter_window[k0..k1]);
        let lane_profiles: Vec<Option<Profile>> = with_threads(lanes, || {
            (k0..k1)
                .zip(slots)
                .zip(&mut eigenvalues[k0..k1])
                .into_par_iter()
                .map(|((ik, (psi, window)), evals)| {
                    let own = split.then(Profile::new);
                    let profile = if split { own.as_ref() } else { profile };
                    with_threads(share, || {
                        let phases = phases_for::<T>(space, &kpts[ik]);
                        let lanczos = (space.ndofs(), LANCZOS_STEPS, cfg.seed + 1000 + ik as u64);
                        *evals = seam.with_operators(&v_eff, phases, profile, |h, reducer| {
                            let rows = (0..seam.n_rows()).map(|l| seam.dof_of_row(l));
                            ks_eigensolve(
                                (h, reducer),
                                lanczos_start(lanczos, rows),
                                psi,
                                window,
                                passes,
                                occupied,
                                cfg.kt,
                                mu,
                                &opts,
                                profile,
                            )
                        });
                    });
                    own
                })
                .collect()
        });
        if let (Some(p), Some(t0)) = (profile, region) {
            let lane_profiles: Vec<Profile> = lane_profiles.into_iter().flatten().collect();
            p.fold_lanes(&lane_profiles, t0.elapsed().as_secs_f64());
        }
        // a failed rank leaves garbage Ritz values behind: stop before they
        // reach the occupations
        seam.probe(iter)?;
        seam.exchange_kpoints(iter, &mut eigenvalues, &mut st.filter_window, profile)?;

        // ---- occupations & density -------------------------------------
        let occ = {
            let _scope = PhaseScope::new(profile, Phase::Other);
            fermi_occupations(&eigenvalues, &kweights, n_el, cfg.kt)
        };
        st.mu = occ.mu;
        occupations = occ.occupations.clone();

        {
            let mut scope = PhaseScope::new(profile, Phase::Dc);
            rho_out = vec![0.0; nn];
            // rows x band columns x k-points of the ranks partition the
            // serial triple sum, so one global sum counts every term once
            let (j0, j1) = seam.band_cols(cfg.n_states);
            for ik in k0..k1 {
                let (psi, w, occ) = (&st.psi[ik - k0], kpts[ik].weight, &occupations[ik]);
                let rows = |l| seam.dof_of_row(l);
                let added = accumulate_density(space, psi, rows, w, occ, j0..j1, &mut rho_out);
                // per DoF: |psi|^2 (the squared components and, complex,
                // their sum), two mass scalings, the k/occupation weight,
                // and the accumulate
                let elems = added as u64 * n_rows as u64;
                let abs_sq = T::SCALE_FLOPS + u64::from(T::IS_COMPLEX);
                scope.add_flops(elems * (abs_sq + 4));
                scope.add_bytes(elems * std::mem::size_of::<T>() as u64);
            }
            seam.sum_f64(&mut rho_out);
        }
        seam.probe(iter)?;

        // ---- total energy (with rho_out) --------------------------------
        let (band, rho_veff, rho_charge_out) = {
            let _scope = PhaseScope::new(profile, Phase::Other);
            let band: f64 = (0..kpts.len())
                .map(|ik| -> f64 {
                    kpts[ik].weight
                        * eigenvalues[ik]
                            .iter()
                            .zip(&occupations[ik])
                            .map(|(&e, &f)| e * f)
                            .sum::<f64>()
                })
                .sum();
            let rho_veff: f64 =
                space.integrate(&(0..nn).map(|i| rho_out[i] * v_eff[i]).collect::<Vec<_>>());
            let rho_charge_out: Vec<f64> = (0..nn).map(|i| rho_ion[i] - rho_out[i]).collect();
            (band, rho_veff, rho_charge_out)
        };
        let kinetic = band - rho_veff;
        let phi_out = solve_electrostatics(space, &rho_charge_out, cfg.poisson_tol, profile)
            .map_err(diverged)?;
        let xc_out = {
            let _scope = PhaseScope::new(profile, Phase::Dh);
            let rho_out_field = NodalField::from_values(space, rho_out.clone());
            evaluate_xc(space, &rho_out_field, xc)
        };
        let residual = {
            let _scope = PhaseScope::new(profile, Phase::Other);
            let e_es_gauss = 0.5
                * space.integrate(
                    &(0..nn)
                        .map(|i| rho_charge_out[i] * phi_out[i])
                        .collect::<Vec<_>>(),
                );
            let electrostatic = e_es_gauss + e_ii_corr;
            let total = kinetic + electrostatic + xc_out.energy;
            let entropy_term = -cfg.kt * occ.entropy;
            result_energy = TotalEnergy {
                band,
                kinetic,
                electrostatic,
                xc: xc_out.energy,
                entropy_term,
                total,
                free_energy: total + entropy_term,
            };

            // ---- convergence & mixing -----------------------------------
            let diff: Vec<f64> = (0..nn)
                .map(|i| (rho_out[i] - st.rho_in[i]).powi(2))
                .collect();
            space.integrate(&diff).sqrt() / n_el
        };
        st.residual_history.push(residual);
        if residual < cfg.tol {
            converged = true;
            break;
        }
        {
            let _scope = PhaseScope::new(profile, Phase::Other);
            st.rho_in = st
                .mixer
                .mix_with(&st.rho_in, &rho_out, &|gram| seam.sum_f64(gram));
        }
        seam.probe(iter)?;
    }

    if converged {
        seam.export_converged(&st, &rho_out, profile)?;
    }

    Ok(ScfResult {
        energy: result_energy,
        eigenvalues,
        occupations,
        mu: st.mu,
        density: NodalField::from_values(space, rho_out),
        vxc: vxc_nodes,
        v_eff,
        iterations,
        converged,
        // the rank solve fills these in from its seam
        resumed_from: None,
        residual_history: st.residual_history,
        profile: profile_store.map(|p| p.finish(None)),
        comm: CommVolume::default(),
    })
}

/// Add one k-point's share `w sum_i f_i |psi_i|^2` of the electron density,
/// over the columns `cols` of `psi` with occupations `occupations[i]`, to
/// the nodal `rho` — the density build of the SCF and of inverse DFT. Row
/// `l` of `psi` is DoF `dof_of_row(l)` of the orthonormalized basis, so
/// its amplitude is scaled back by `M^{-1/2}` twice. Columns occupied below
/// [`DENSITY_CUTOFF`] are skipped; returns how many were added.
pub fn accumulate_density<T: Scalar>(
    space: &FeSpace,
    psi: &Matrix<T>,
    dof_of_row: impl Fn(usize) -> usize,
    w: f64,
    occupations: &[f64],
    cols: Range<usize>,
    rho: &mut [f64],
) -> usize {
    let s = space.inv_sqrt_mass();
    let mut added = 0;
    for i in cols {
        let f = occupations[i];
        if f < DENSITY_CUTOFF {
            continue;
        }
        added += 1;
        for (l, &v) in psi.col(i).iter().enumerate() {
            let d = dof_of_row(l);
            let amp = v.abs_sq().to_f64() * s[d] * s[d];
            rho[space.node_of_dof(d)] += w * f * amp;
        }
    }
    added
}

/// Bloch phases `e^{i 2 pi f_d}` for k-point `k` in scalar type `T`.
fn phases_for<T: ScalarExt>(space: &FeSpace, k: &KPoint) -> [T; 3] {
    let mut ph = [T::ONE; 3];
    for d in 0..3 {
        // dftlint:allow(L004, reason="exact Gamma-point sentinel: k.frac is set to literal 0.0, never computed")
        if space.mesh.axes[d].bc() == BoundaryCondition::Periodic && k.frac[d] != 0.0 {
            let theta = 2.0 * std::f64::consts::PI * k.frac[d];
            if T::IS_COMPLEX {
                ph[d] = T::from_f64(theta.cos())
                    + T::imag().scale(<T::Re as Real>::from_f64(theta.sin()));
            } else {
                let c = theta.cos().round();
                assert!(
                    (theta.sin()).abs() < 1e-12 && (c.abs() - 1.0).abs() < 1e-12,
                    "real path supports only Γ / zone-boundary k-points"
                );
                ph[d] = T::from_f64(c);
            }
        }
    }
    ph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::scf::solve_on;
    use crate::hamiltonian::KsHamiltonian;
    use crate::system::{Atom, AtomKind};
    use crate::xc::{Lda, SyntheticTruth};
    use dft_fem::mesh::{Axis, Mesh3d};
    use std::cell::Cell;

    thread_local! {
        /// Withholds the chemical potential from the eigensolves of SCF
        /// loops run on this thread, so they filter every column.
        pub(super) static WITHHOLD_MU: Cell<bool> = const { Cell::new(false) };
        /// The thread budget the last SCF iteration run on this thread saw.
        pub(super) static LOOP_THREADS: Cell<usize> = const { Cell::new(0) };
    }

    fn atom_space(l: f64, n: usize, p: usize) -> FeSpace {
        let c = l / 2.0;
        let ax = || {
            Axis::graded(
                0.0,
                l,
                0.5,
                l / n as f64,
                &[c],
                3.0,
                BoundaryCondition::Dirichlet,
            )
        };
        FeSpace::new(Mesh3d::new([ax(), ax(), ax()], p))
    }

    fn quick_cfg(n_states: usize) -> ScfConfig {
        ScfConfig {
            n_states,
            kt: 0.02,
            tol: 1e-5,
            max_iter: 30,
            cheb_degree: 30,
            first_iter_cf_passes: 5,
            ..ScfConfig::default()
        }
    }

    #[test]
    fn hydrogen_like_atom_binds() {
        // 1 electron in a z=1 smeared nucleus with LDA: expect a bound
        // ground state near (but above) -0.5 Ha modulo smearing and
        // self-interaction.
        let space = atom_space(12.0, 3, 3);
        let c = 6.0;
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::AllElectron { z: 1.0, r_c: 0.4 },
            pos: [c, c, c],
        }]);
        let r = scf(&space, &sys, &Lda, &quick_cfg(4), &[KPoint::gamma()]);
        assert!(r.converged, "residuals {:?}", r.residual_history);
        assert!(
            r.energy.free_energy < -0.2 && r.energy.free_energy > -0.75,
            "E = {}",
            r.energy.free_energy
        );
        // density integrates to one electron
        assert!((r.density.integrate(&space) - 1.0).abs() < 1e-6);
        // ground state is bound
        assert!(r.eigenvalues[0][0] < 0.0);
    }

    #[test]
    fn helium_like_scf_converges_and_is_stable() {
        let space = atom_space(12.0, 3, 3);
        let c = 6.0;
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.5 },
            pos: [c, c, c],
        }]);
        let r = scf(&space, &sys, &Lda, &quick_cfg(4), &[KPoint::gamma()]);
        assert!(r.converged);
        assert!((r.density.integrate(&space) - 2.0).abs() < 1e-6);
        // kinetic energy positive, XC negative, bound total
        assert!(r.energy.kinetic > 0.0, "T_s = {}", r.energy.kinetic);
        assert!(r.energy.xc < 0.0);
        assert!(r.energy.free_energy < 0.0);
        // residual decreased by orders of magnitude
        let first = r.residual_history[0];
        let last = *r.residual_history.last().unwrap();
        assert!(last < 1e-3 * first);
    }

    #[test]
    fn truth_and_lda_give_different_energies() {
        let space = atom_space(12.0, 3, 3);
        let c = 6.0;
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.5 },
            pos: [c, c, c],
        }]);
        let r_lda = scf(&space, &sys, &Lda, &quick_cfg(4), &[KPoint::gamma()]);
        let r_tru = scf(
            &space,
            &sys,
            &SyntheticTruth,
            &quick_cfg(4),
            &[KPoint::gamma()],
        );
        assert!(r_lda.converged && r_tru.converged);
        let d = (r_lda.energy.free_energy - r_tru.energy.free_energy).abs();
        assert!(d > 1e-3, "functionals should disagree: diff = {d}");
    }

    #[test]
    fn complex_gamma_matches_real_path() {
        let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
            pos: [3.0, 3.0, 3.0],
        }]);
        let cfg = quick_cfg(4);
        let r_real = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
        let dcfg = DistScfConfig::new(cfg.clone());
        let (mut ranks, _) = run_cluster(1, |comm| {
            solve_on::<C64>(comm, &space, &sys, &Lda, &dcfg, &[KPoint::gamma()])
        });
        let r_cplx = ranks.pop().unwrap().unwrap();
        assert!(r_real.converged && r_cplx.converged);
        assert!(
            (r_real.energy.free_energy - r_cplx.energy.free_energy).abs() < 1e-5,
            "real {} vs complex {}",
            r_real.energy.free_energy,
            r_cplx.energy.free_energy
        );
    }

    #[test]
    fn periodic_kpoint_sampling_runs_and_shifts_energy() {
        // periodic box with one soft atom: 2 k-points along z
        let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
            pos: [3.0, 3.0, 3.0],
        }]);
        let cfg = quick_cfg(4);
        let kpts = [
            KPoint {
                frac: [0.0, 0.0, 0.0],
                weight: 0.5,
            },
            KPoint {
                frac: [0.0, 0.0, 0.25],
                weight: 0.5,
            },
        ];
        let r = scf(&space, &sys, &Lda, &cfg, &kpts);
        assert!(r.converged, "residuals {:?}", r.residual_history);
        assert_eq!(r.eigenvalues.len(), 2);
        // the two k-points have different spectra
        let d0 = (r.eigenvalues[0][0] - r.eigenvalues[1][0]).abs();
        assert!(d0 > 1e-6, "k-dispersion expected, got {d0}");
        assert!((r.density.integrate(&space) - 2.0).abs() < 1e-6);
    }

    /// Two k-points in two lanes book what one lane books — every phase's
    /// flops, bytes and calls — and their folded seconds keep the profile
    /// a wall-clock breakdown of the loop, with the same bits as one lane.
    /// Each solve sees the cap it was started under, so it ran on the
    /// calling thread.
    #[test]
    fn lanes_book_what_one_lane_books() {
        let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
            pos: [3.0, 3.0, 3.0],
        }]);
        let cfg = ScfConfig {
            profile: true,
            ..quick_cfg(4)
        };
        let half = |z| KPoint {
            frac: [0.0, 0.0, z],
            weight: 0.5,
        };
        let kpts = [half(0.0), half(0.25)];
        let under = |cap: usize| {
            LOOP_THREADS.set(0);
            let r = with_threads(cap, || scf(&space, &sys, &Lda, &cfg, &kpts));
            assert_eq!(LOOP_THREADS.get(), cap, "the loop's thread budget");
            r
        };
        let (one, two) = (under(1), under(2));
        assert_eq!(
            one.energy.free_energy.to_bits(),
            two.energy.free_energy.to_bits()
        );
        let (p1, p2) = (one.profile.unwrap(), two.profile.unwrap());
        let ledger = |p: &ScfProfile| -> Vec<_> {
            p.cumulative
                .iter()
                .map(|r| (r.phase.clone(), r.flops, r.bytes, r.calls))
                .collect()
        };
        assert_eq!(ledger(&p1), ledger(&p2));
        assert_eq!(p1.iterations.len(), p2.iterations.len());
        assert!(
            p2.measured_seconds() <= p2.total_seconds * (1.0 + 1e-9),
            "folded {} exceeds the loop's {}",
            p2.measured_seconds(),
            p2.total_seconds
        );
        assert!(p2.coverage() > 0.95, "coverage {:.3}", p2.coverage());
    }

    /// Where the occupied-column rule skips filter blocks: 24 states for 2
    /// electrons on a periodic cube, filtered 8 columns at a time, so after
    /// the first solve only the lowest blocks hold a column the density
    /// sees.
    fn wide_problem() -> (FeSpace, AtomicSystem, ScfConfig) {
        let space = FeSpace::new(Mesh3d::periodic_cube(2, 6.0, 3));
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.8 },
            pos: [3.0, 3.0, 3.0],
        }]);
        let cfg = ScfConfig {
            block_size: 8,
            ..quick_cfg(24)
        };
        (space, sys, cfg)
    }

    /// The rule books what it runs: iteration 0 (a first solve) filters
    /// every column in each of its cycles, between one and the cap of them,
    /// and every later iteration books less than one all-column filter.
    #[test]
    fn occupied_filter_books_less_after_the_first_solve() {
        use crate::chebyshev::chebyshev_filter_flops;

        let (space, sys, cfg) = wide_problem();
        let cfg = ScfConfig {
            profile: true,
            ..cfg
        };
        let r = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
        assert!(r.converged);
        let prof = r.profile.expect("profile requested");
        let v0 = vec![0.0; space.nnodes()];
        let h = KsHamiltonian::<f64>::new(&space, &v0, [1.0; 3]);
        let every = chebyshev_filter_flops(&h, cfg.n_states, cfg.cheb_degree);
        let cf = |i: usize| {
            let phases = &prof.iterations[i].phases;
            phases.iter().find(|p| p.phase == "CF").expect("CF").flops
        };
        assert_eq!(cf(0) % every, 0, "whole all-column filters");
        let cycles = cf(0) / every;
        assert!((1..=cfg.first_iter_cf_passes as u64).contains(&cycles));
        assert!(r.iterations > 2);
        for i in 1..r.iterations {
            assert!(cf(i) < every, "iteration {i}: {} of {every}", cf(i));
        }
    }

    /// Filtering only the seen columns moves the energy by no more than
    /// the SCF tolerance allows: within 1e-8 Ha of the same SCF with the
    /// chemical potential withheld, which filters every column — and so
    /// books more CF flops, which shows the switch reached the loop.
    #[test]
    fn occupied_filter_energy_matches_filtering_every_column() {
        let (space, sys, cfg) = wide_problem();
        let cfg = ScfConfig {
            profile: true,
            ..cfg
        };
        let gamma = [KPoint::gamma()];
        let rule = scf(&space, &sys, &Lda, &cfg, &gamma);
        WITHHOLD_MU.set(true);
        let every = scf(&space, &sys, &Lda, &cfg, &gamma);
        WITHHOLD_MU.set(false);
        assert!(rule.converged && every.converged);
        let cf = |r: &ScfResult| r.profile.as_ref().expect("profiled").phase_flops("CF");
        assert!(
            cf(&every) > cf(&rule),
            "withheld {} vs rule {} CF flops",
            cf(&every),
            cf(&rule)
        );
        let d = (rule.energy.free_energy - every.energy.free_energy).abs();
        assert!(
            d <= 1e-8,
            "rule {} vs every column {} (|d| = {d:.3e})",
            rule.energy.free_energy,
            every.energy.free_energy
        );
    }

    #[test]
    fn mixed_precision_scf_matches_fp64_energy() {
        let space = atom_space(12.0, 3, 3);
        let c = 6.0;
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.5 },
            pos: [c, c, c],
        }]);
        let mut cfg = quick_cfg(4);
        let r64 = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
        cfg.mixed_precision = true;
        let rmx = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
        assert!(r64.converged && rmx.converged);
        // paper: mixed precision stays within the discretization accuracy
        assert!(
            (r64.energy.free_energy - rmx.energy.free_energy).abs() < 1e-4,
            "fp64 {} vs mixed {}",
            r64.energy.free_energy,
            rmx.energy.free_energy
        );
    }

    #[test]
    fn profiling_off_by_default_and_absent_from_result() {
        assert!(!ScfConfig::default().profile);
        let space = atom_space(10.0, 2, 2);
        let c = 5.0;
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.5 },
            pos: [c, c, c],
        }]);
        let cfg = ScfConfig {
            max_iter: 2,
            tol: 0.0,
            ..quick_cfg(4)
        };
        let r = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
        assert!(r.profile.is_none());
    }

    #[test]
    fn profiled_scf_matches_analytic_flops_and_wall_clock() {
        use crate::chebyshev::chebyshev_filter_flops;
        use dft_hpc::profile::PhaseRecord;
        use dft_linalg::gemm::gemm_flops;

        let space = atom_space(12.0, 3, 3);
        let c = 6.0;
        let sys = AtomicSystem::new(vec![Atom {
            kind: AtomKind::Pseudo { z: 2.0, r_c: 0.5 },
            pos: [c, c, c],
        }]);
        let cfg = ScfConfig {
            profile: true,
            ..quick_cfg(4)
        };
        let r = scf(&space, &sys, &Lda, &cfg, &[KPoint::gamma()]);
        assert!(r.converged);
        let prof = r.profile.expect("profile requested");

        // one bucket per SCF iteration
        assert_eq!(prof.iterations.len(), r.iterations);

        // phase wall times account for the loop: sum <= total, and within
        // 5% of it (the un-scoped bookkeeping between scopes is tiny)
        assert!(
            prof.measured_seconds() <= prof.total_seconds * (1.0 + 1e-9),
            "scoped time {} exceeds total {}",
            prof.measured_seconds(),
            prof.total_seconds
        );
        assert!(
            prof.coverage() > 0.95,
            "scope coverage {:.3} below 95%",
            prof.coverage()
        );

        // FLOP tallies must equal the analytic per-call counts exactly:
        // ChFES runs once per RR-D call, between one and
        // first_iter_cf_passes times at iteration 0 and once after
        let (n, nd) = (cfg.n_states, space.ndofs());
        let rr_d = |phases: &[PhaseRecord]| {
            phases
                .iter()
                .find(|p| p.phase == "RR-D")
                .map_or(0, |p| p.calls)
        };
        let first = rr_d(&prof.iterations[0].phases);
        assert!((1..=cfg.first_iter_cf_passes as u64).contains(&first));
        let calls = first + (r.iterations - 1) as u64;
        assert_eq!(calls, rr_d(&prof.cumulative));
        let v0 = vec![0.0; space.nnodes()];
        let h = KsHamiltonian::<f64>::new(&space, &v0, [1.0; 3]);
        assert_eq!(
            prof.phase_flops("CF"),
            calls * chebyshev_filter_flops(&h, n, cfg.cheb_degree)
        );
        // CholGS-S, CholGS-O and RR-P form a triangle: n (n + 1) / 2 of the
        // n^2 entries (or inner terms) per row of depth
        let triangle = gemm_flops::<f64>(n * (n + 1) / 2, 1, nd);
        assert_eq!(prof.phase_flops("CholGS-S"), calls * triangle);
        assert_eq!(prof.phase_flops("CholGS-O"), calls * triangle);
        assert_eq!(
            prof.phase_flops("RR-P"),
            calls * (h.apply_flops(n) + triangle)
        );
        assert_eq!(
            prof.phase_flops("RR-SR"),
            calls * gemm_flops::<f64>(nd, n, n)
        );
        // wall-time-only steps per the paper's Sec. 6.3 accounting
        assert_eq!(prof.phase_flops("CholGS-CI"), 0);
        assert_eq!(prof.phase_flops("RR-D"), 0);
        // the merged tail row carries the Poisson + density FLOPs
        assert!(prof.phase_flops("EP") > 0);
        assert!(prof.phase_flops("DC") > 0);
        assert_eq!(prof.table3_rows().len(), 9);
    }
}
