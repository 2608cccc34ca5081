//! The integrators that move atoms on Hellmann-Feynman forces.
//!
//! The paper's quasicrystal stability study requires relaxed nanoparticle
//! geometries; FIRE (fast inertial relaxation engine) is the standard
//! molecular-statics driver: velocity-Verlet steps with adaptive
//! time-step and a "power" criterion that kills uphill inertia. Plain
//! velocity Verlet integrates Born-Oppenheimer MD. [`FireState`] and
//! [`VerletState`] are pure data with one update rule each, so the one
//! trajectory loop (`dft_parallel::dist_relax` / `dist_md`) steps either
//! on replicated forces and persists / restores it across preemptions.

/// FIRE's initial time step.
const FIRE_DT: f64 = 0.5;
/// FIRE's maximum time step.
const FIRE_DT_MAX: f64 = 2.0;
/// Maximum displacement per FIRE step (trust radius, Bohr).
const MAX_DISP: f64 = 0.25;

/// When a relaxation stops.
#[derive(Clone, Debug)]
pub struct RelaxConfig {
    /// Maximum relaxation steps.
    pub max_steps: usize,
    /// Converged when the largest force component falls below this
    /// (Ha/Bohr; the paper's discretization target is 1e-4).
    pub force_tol: f64,
}

impl Default for RelaxConfig {
    fn default() -> Self {
        Self {
            max_steps: 20,
            force_tol: 5e-3,
        }
    }
}

/// Mutable FIRE integrator state: velocities plus the adaptive knobs.
/// One `step` call consumes the current forces and returns the
/// displacement to apply; the state is pure data so drivers can persist
/// it (the distributed relaxation checkpoints it alongside the SCF
/// snapshot) and replay deterministically.
#[derive(Clone, Debug)]
pub struct FireState {
    /// Per-atom velocities (unit masses).
    pub v: Vec<[f64; 3]>,
    /// Current adaptive time step.
    pub dt: f64,
    /// Current velocity-mixing parameter.
    pub alpha: f64,
    /// Consecutive downhill (P > 0) steps.
    pub n_pos: usize,
}

impl FireState {
    /// Fresh state for `n_atoms` atoms at the initial time step.
    pub fn new(n_atoms: usize) -> Self {
        Self {
            v: vec![[0.0; 3]; n_atoms],
            dt: FIRE_DT,
            alpha: 0.1,
            n_pos: 0,
        }
    }

    /// One FIRE update: mix velocities by the power criterion, integrate
    /// one velocity-Verlet step, and return the per-atom displacements.
    ///
    /// Trust radius: the step is clamped by the *norm* of the largest
    /// per-atom displacement (a uniform rescale of the whole step vector,
    /// preserving its direction), and the velocities are rescaled by the
    /// same factor so that `v == dx/dt` — the next power criterion
    /// `P = F.v` sees a velocity consistent with the move actually
    /// applied. (The old per-component clamp both bent the step direction
    /// and left `v` describing a move that never happened.)
    pub fn step(&mut self, f: &[[f64; 3]]) -> Vec<[f64; 3]> {
        let n = f.len();
        assert_eq!(self.v.len(), n);
        // FIRE: P = F . v
        let p: f64 = (0..n)
            .map(|i| (0..3).map(|k| f[i][k] * self.v[i][k]).sum::<f64>())
            .sum();
        let fnorm: f64 = (0..n)
            .map(|i| (0..3).map(|k| f[i][k] * f[i][k]).sum::<f64>())
            .sum::<f64>()
            .sqrt()
            .max(1e-300);
        let vnorm: f64 = (0..n)
            .map(|i| (0..3).map(|k| self.v[i][k] * self.v[i][k]).sum::<f64>())
            .sum::<f64>()
            .sqrt();
        if p > 0.0 {
            for i in 0..n {
                for k in 0..3 {
                    self.v[i][k] =
                        (1.0 - self.alpha) * self.v[i][k] + self.alpha * f[i][k] / fnorm * vnorm;
                }
            }
            self.n_pos += 1;
            if self.n_pos > 5 {
                self.dt = (self.dt * 1.1).min(FIRE_DT_MAX);
                self.alpha *= 0.99;
            }
        } else {
            self.v = vec![[0.0; 3]; n];
            self.dt *= 0.5;
            self.alpha = 0.1;
            self.n_pos = 0;
        }
        // velocity Verlet (unit masses)
        let mut dx = vec![[0.0f64; 3]; n];
        let mut max_norm = 0.0f64;
        for i in 0..n {
            let mut d2 = 0.0;
            for k in 0..3 {
                self.v[i][k] += self.dt * f[i][k];
                dx[i][k] = self.dt * self.v[i][k];
                d2 += dx[i][k] * dx[i][k];
            }
            max_norm = max_norm.max(d2.sqrt());
        }
        // trust radius: uniform rescale of step AND velocity
        if max_norm > MAX_DISP {
            let s = MAX_DISP / max_norm;
            for i in 0..n {
                for k in 0..3 {
                    dx[i][k] *= s;
                    self.v[i][k] *= s;
                }
            }
        }
        dx
    }
}

/// Velocity-Verlet state (unit masses, zero initial velocities). After a
/// move `v` is the half-step velocity that still owes the move its second
/// half-kick, which [`Self::kinetic`] and the next `step` pay on the forces
/// at the new geometry.
#[derive(Clone, Debug)]
pub struct VerletState {
    /// Per-atom velocities (unit masses).
    pub v: Vec<[f64; 3]>,
    /// Time step (atomic units).
    pub dt: f64,
    /// Whether a move has been made, i.e. `v` owes its second half-kick.
    pub moved: bool,
}

impl VerletState {
    /// Atoms at rest, before the first move.
    pub fn new(n_atoms: usize, dt: f64) -> Self {
        Self {
            v: vec![[0.0; 3]; n_atoms],
            dt,
            moved: false,
        }
    }

    /// Velocities at the current geometry, whose forces are `f`.
    fn settled(&self, f: &[[f64; 3]]) -> Vec<[f64; 3]> {
        let kick =
            |(v, f): (&[f64; 3], &[f64; 3])| std::array::from_fn(|k| v[k] + 0.5 * self.dt * f[k]);
        if !self.moved {
            return self.v.clone();
        }
        self.v.iter().zip(f).map(kick).collect()
    }

    /// Kinetic energy at the current geometry, whose forces are `f`.
    pub fn kinetic(&self, f: &[[f64; 3]]) -> f64 {
        let sq = |v: &[f64; 3]| v.iter().map(|&c| c * c).sum::<f64>();
        0.5 * self.settled(f).iter().map(sq).sum::<f64>()
    }

    /// One move on the forces `f` at the current geometry: the owed
    /// half-kick (none before the first move), the next half-kick and the
    /// drift; returns the displacements.
    pub fn step(&mut self, f: &[[f64; 3]]) -> Vec<[f64; 3]> {
        self.v = self.settled(f);
        self.moved = true;
        self.v = self.settled(f);
        self.v.iter().map(|v| v.map(|c| self.dt * c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the trust-radius bug: a steep force must produce a
    /// step clamped by *norm* (direction preserved) with the velocity
    /// rescaled to match the applied displacement exactly.
    #[test]
    fn trust_radius_clamps_by_norm_and_rescales_velocity() {
        let mut fire = FireState::new(2);
        // steep, direction-mixing force: the old per-component clamp
        // would saturate x and y at MAX_DISP and bend the direction
        let f = [[40.0, 10.0, 0.0], [-40.0, -10.0, 0.0]];
        let dx = fire.step(&f);
        for i in 0..2 {
            let norm = (0..3).map(|k| dx[i][k] * dx[i][k]).sum::<f64>().sqrt();
            assert!(
                norm <= MAX_DISP * (1.0 + 1e-12),
                "atom {i} step norm {norm} exceeds trust radius"
            );
            // direction preserved: dx parallel to f (v started at zero)
            let cross = dx[i][0] * f[i][1] - dx[i][1] * f[i][0];
            assert!(cross.abs() < 1e-12, "clamp bent the step direction");
            // velocity consistent with the applied move: v == dx/dt
            for k in 0..3 {
                assert!(
                    (fire.v[i][k] * fire.dt - dx[i][k]).abs() < 1e-14,
                    "velocity inconsistent with applied displacement"
                );
            }
        }
        // and an unclamped gentle step is untouched (first step has
        // P = 0 so FIRE halves dt before integrating: dx = (dt/2)^2 f)
        let mut fire2 = FireState::new(1);
        let g = [[0.1, 0.0, 0.0]];
        let dx2 = fire2.step(&g);
        let dt_h = FIRE_DT * 0.5;
        assert!((dx2[0][0] - dt_h * dt_h * 0.1).abs() < 1e-15);
    }
}
