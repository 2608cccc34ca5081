//! Seeded input generation for the six workloads. The solver crates see
//! only what is built here: meshes, atoms, SCF knobs, job specs.
//!
//! The seed jitters every atom position by at most [`JITTER_BOHR`] per
//! component, so two seeds give physically distinct but equally hard
//! problems. `ScfConfig::seed` (the RNG of the initial subspace) is NOT
//! derived from it: on `scf-poisson` that alone moved the SCF from 9 to 13
//! iterations between seeds, which would make `wall_s` measure the luck of
//! the start vector instead of the speed of the code.

use dft_core::scf::{KPoint, ScfConfig};
use dft_core::system::{Atom, AtomKind, AtomicSystem};
use dft_fem::mesh::{Axis, BoundaryCondition, Mesh3d};
use dft_serve::{JobSpec, MeshSpec};

/// Largest per-component displacement the seed applies to an atom (Bohr).
pub const JITTER_BOHR: f64 = 0.05;

/// The seed whose energies and iteration counts `reference.json` pins.
pub const DEFAULT_SEED: u64 = 1;

/// SplitMix64: the benchmark's only random source.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// The six workloads. Names are part of the benchmark's contract
/// (`BENCHMARK.json`, `reference.json`, trace file names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ScfWide,
    ScfPoisson,
    Scf2k,
    Dist2r,
    RelaxWarm2r,
    ServeBurst,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ScfWide,
        Workload::ScfPoisson,
        Workload::Scf2k,
        Workload::Dist2r,
        Workload::RelaxWarm2r,
        Workload::ServeBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScfWide => "scf-wide",
            Workload::ScfPoisson => "scf-poisson",
            Workload::Scf2k => "scf-2k",
            Workload::Dist2r => "dist-2r",
            Workload::RelaxWarm2r => "relax-warm-2r",
            Workload::ServeBurst => "serve-burst",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size (the measured benchmark) or the miniature the harness's own
/// tests run: 2³ cells p=3, 4 states, 8 jobs. No command-line option
/// selects the miniature: a result set is always full size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// A uniform cubic mesh description, convertible both to the `Mesh3d` the
/// solvers take and to the declarative `MeshSpec` the server takes.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    pub cells: usize,
    pub length: f64,
    pub degree: usize,
    pub periodic: bool,
}

impl Grid {
    pub fn mesh(&self) -> Mesh3d {
        let bc = if self.periodic {
            BoundaryCondition::Periodic
        } else {
            BoundaryCondition::Dirichlet
        };
        let ax = || Axis::uniform(self.cells, 0.0, self.length, bc);
        Mesh3d::new([ax(), ax(), ax()], self.degree)
    }

    pub fn mesh_spec(&self) -> MeshSpec {
        MeshSpec {
            cells: [self.cells; 3],
            lengths: [self.length; 3],
            degree: self.degree,
            periodic: [self.periodic; 3],
        }
    }
}

/// One Kohn-Sham problem: what every workload's solver calls share.
#[derive(Clone, Debug)]
pub struct Problem {
    pub grid: Grid,
    pub system: AtomicSystem,
    pub cfg: ScfConfig,
    pub kpts: Vec<KPoint>,
}

impl Problem {
    pub fn gamma_only(&self) -> bool {
        self.kpts.len() == 1 && self.kpts[0].is_gamma()
    }
}

fn pseudo(z: f64, r_c: f64, pos: [f64; 3], rng: &mut SplitMix64) -> Atom {
    let mut p = pos;
    for c in &mut p {
        *c += JITTER_BOHR * rng.symmetric();
    }
    Atom {
        kind: AtomKind::Pseudo { z, r_c },
        pos: p,
    }
}

/// `n[0]·n[1]·n[2]` atoms on a sub-lattice of a cube of edge `l`.
fn lattice(l: f64, n: [usize; 3], z: f64, r_c: f64, rng: &mut SplitMix64) -> Vec<Atom> {
    let mut atoms = Vec::with_capacity(n[0] * n[1] * n[2]);
    for i in 0..n[0] {
        for j in 0..n[1] {
            for k in 0..n[2] {
                let at = |m: usize, nm: usize| l * (m as f64 + 0.5) / nm as f64;
                atoms.push(pseudo(z, r_c, [at(i, n[0]), at(j, n[1]), at(k, n[2])], rng));
            }
        }
    }
    atoms
}

fn diatomic(l: f64, z: f64, r_c: f64, half_bond: f64, rng: &mut SplitMix64) -> Vec<Atom> {
    let c = l / 2.0;
    vec![
        pseudo(z, r_c, [c - half_bond, c, c], rng),
        pseudo(z, r_c, [c + half_bond, c, c], rng),
    ]
}

fn scf_cfg(n_states: usize) -> ScfConfig {
    ScfConfig {
        n_states,
        cheb_degree: 30,
        tol: 1e-6,
        ..ScfConfig::default()
    }
}

const SMOKE_GRID: Grid = Grid {
    cells: 2,
    length: 6.0,
    degree: 3,
    periodic: true,
};

// periodic 4³ cells, p=5: 8,000 DoF
const WIDE_GRID: Grid = Grid {
    cells: 4,
    length: 12.0,
    degree: 5,
    periodic: true,
};

// Dirichlet 7³ cells, p=4: 27³ = 19,683 interior DoF
const POISSON_GRID: Grid = Grid {
    cells: 7,
    length: 14.0,
    degree: 4,
    periodic: false,
};

// periodic 4³ cells, p=4: 4,096 DoF
const RELAX_GRID: Grid = Grid {
    cells: 4,
    length: 9.0,
    degree: 4,
    periodic: true,
};

// periodic 3³ cells, p=3: 729 DoF
const SERVE_GRID: Grid = Grid {
    cells: 3,
    length: 7.5,
    degree: 3,
    periodic: true,
};

/// The Kohn-Sham problem of `workload` for `seed`. For `serve-burst` this
/// is the first structure of the burst family (see [`serve_specs`]).
pub fn problem(workload: Workload, seed: u64, scale: Scale) -> Problem {
    if workload == Workload::ServeBurst {
        let spec = serve_specs(seed, scale).swap_remove(0);
        return Problem {
            grid: serve_grid(scale),
            system: AtomicSystem::new(spec.atoms.clone()),
            cfg: serve_scf_cfg(&spec),
            kpts: spec.kpts,
        };
    }
    let full = scale == Scale::Full;
    let mut rng = SplitMix64::new(seed);
    // full-size grid, atoms per axis of the sub-lattice, states
    let (full_grid, full_lattice, full_states) = match workload {
        Workload::ScfWide => (WIDE_GRID, [3, 2, 2], 96),
        Workload::ScfPoisson => (POISSON_GRID, [0; 3], 4),
        Workload::Scf2k => (WIDE_GRID, [2, 2, 1], 24),
        Workload::Dist2r => (WIDE_GRID, [2, 2, 1], 32),
        Workload::RelaxWarm2r => (RELAX_GRID, [0; 3], 8),
        Workload::ServeBurst => unreachable!("handled above"),
    };
    let grid = if full {
        full_grid
    } else {
        Grid {
            periodic: full_grid.periodic,
            // an isolated molecule needs room for its tails
            length: if full_grid.periodic { 6.0 } else { 8.0 },
            ..SMOKE_GRID
        }
    };
    let l = grid.length;
    let atoms = match workload {
        Workload::ScfPoisson => diatomic(l, 2.0, 0.8, 1.1, &mut rng),
        Workload::RelaxWarm2r => diatomic(l, 1.0, 0.7, 0.8, &mut rng),
        _ => lattice(
            l,
            if full { full_lattice } else { [1, 1, 1] },
            2.0,
            0.8,
            &mut rng,
        ),
    };
    Problem {
        grid,
        system: AtomicSystem::new(atoms),
        cfg: scf_cfg(if full { full_states } else { 4 }),
        kpts: if workload == Workload::Scf2k {
            two_k()
        } else {
            vec![KPoint::gamma()]
        },
    }
}

fn two_k() -> Vec<KPoint> {
    vec![
        KPoint {
            frac: [0.0, 0.0, 0.0],
            weight: 0.5,
        },
        KPoint {
            frac: [0.0, 0.0, 0.25],
            weight: 0.5,
        },
    ]
}

/// FIRE steps of one `relax-warm-2r` trajectory.
pub fn relax_steps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 6,
        Scale::Smoke => 2,
    }
}

/// `(distinct structures, submissions of each)` of one `serve-burst`.
pub fn serve_shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (24, 4),
        Scale::Smoke => (4, 2),
    }
}

fn serve_grid(scale: Scale) -> Grid {
    match scale {
        Scale::Full => SERVE_GRID,
        Scale::Smoke => SMOKE_GRID,
    }
}

/// The burst family: one Z=2 pseudo-atom sliding along x through the
/// middle of the box, one distinct cache-key class per structure.
pub fn serve_specs(seed: u64, scale: Scale) -> Vec<JobSpec> {
    let mut rng = SplitMix64::new(seed);
    let (structures, _) = serve_shape(scale);
    let grid = serve_grid(scale);
    let l = grid.length;
    (0..structures)
        .map(|s| {
            let x = l * (0.25 + 0.5 * s as f64 / structures as f64);
            let mut spec =
                JobSpec::miniature(vec![pseudo(2.0, 0.8, [x, l / 2.0, l / 2.0], &mut rng)], l);
            spec.mesh = grid.mesh_spec();
            spec.n_states = 4;
            spec.tol = 1e-6;
            spec.cheb_degree = 30;
            spec.first_iter_cf_passes = 4;
            spec
        })
        .collect()
}

/// The serial SCF knobs the server derives from a job spec (mirrors
/// `dft_serve`'s private `base_scf_config` for a `JobKind::Scf` job), so
/// the layer replay of `serve-burst` solves what a cold job solves.
pub fn serve_scf_cfg(spec: &JobSpec) -> ScfConfig {
    ScfConfig {
        n_states: spec.n_states,
        kt: spec.kt,
        tol: spec.tol,
        max_iter: spec.max_iter,
        cheb_degree: spec.cheb_degree,
        first_iter_cf_passes: spec.first_iter_cf_passes,
        ..ScfConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_jitter_is_bounded() {
        for w in Workload::ALL {
            let a = problem(w, 7, Scale::Full);
            let b = problem(w, 7, Scale::Full);
            let c = problem(w, 8, Scale::Full);
            let base = problem(w, 0, Scale::Full);
            let pos = |p: &Problem| p.system.atoms.iter().map(|a| a.pos).collect::<Vec<_>>();
            assert_eq!(pos(&a), pos(&b), "{}", w.name());
            assert_ne!(pos(&a), pos(&c), "{}", w.name());
            for (x, y) in pos(&a).iter().zip(pos(&base).iter()) {
                for d in 0..3 {
                    assert!((x[d] - y[d]).abs() <= 2.0 * JITTER_BOHR);
                }
            }
        }
    }

    #[test]
    fn full_sizes_match_the_documented_shapes() {
        use dft_fem::space::FeSpace;
        let nd = |w| FeSpace::new(problem(w, 1, Scale::Full).grid.mesh()).ndofs();
        assert_eq!(nd(Workload::ScfWide), 8000);
        assert_eq!(nd(Workload::ScfPoisson), 19683);
        assert_eq!(nd(Workload::RelaxWarm2r), 4096);
        assert_eq!(nd(Workload::ServeBurst), 729);
        assert_eq!(serve_specs(1, Scale::Full).len(), 24);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
