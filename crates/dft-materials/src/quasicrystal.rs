//! Icosahedral quasicrystals by the 6D cut-and-project method, with a
//! Tsai-type binary (Yb/Cd) decoration, and nanoparticle carving.
//!
//! The paper's first science application is the thermodynamic stability of
//! Tsai-type icosahedral YbCd5.7 nanoparticles (Takakura et al. structure;
//! Yb295Cd1648 with 1,943 atoms). Here the aperiodic, long-range-ordered
//! point set is generated from first principles of quasicrystallography:
//! project the 6D hypercubic lattice `Z^6` onto a 3D "physical" subspace
//! `E_par` oriented so the 6 lattice basis vectors map onto the six
//! five-fold axes of an icosahedron; accept a lattice point when its
//! complementary projection lands inside a window in `E_perp`. A spherical
//! window preserves full icosahedral symmetry (verified by the five-fold
//! rotation test below). Chemical decoration: points with small
//! `|x_perp|` (deep inside the acceptance window) become the rare-earth
//! species — a Tsai-like chemical ordering that yields the experimental
//! Cd/Yb ratio of ~5.7 for the right threshold.

use crate::structure::Structure;

/// The golden ratio.
pub const TAU: f64 = 1.618_033_988_749_895;

/// Parameters of the cut-and-project generation.
#[derive(Clone, Copy, Debug)]
pub struct QcParams {
    /// 6D lattice constant (sets the physical length scale; Bohr).
    pub lattice_constant: f64,
    /// Acceptance-window radius in `E_perp` (in units of the projected
    /// basis length; ~1.5-2.5 gives Tsai-like densities).
    pub window: f64,
    /// Fraction of the window radius below which a site is decorated as
    /// the rare-earth species ("Yb"); the rest are "Cd".
    pub yb_window_fraction: f64,
    /// Range of 6D integer coordinates searched (`-n..=n` per axis).
    pub n_range: i32,
}

impl Default for QcParams {
    fn default() -> Self {
        Self {
            lattice_constant: 10.0,
            window: 1.8,
            yb_window_fraction: 0.42,
            n_range: 3,
        }
    }
}

/// Six icosahedral parallel-space basis vectors (rows) and their
/// perpendicular-space partners, normalized so each 6D basis vector is a
/// unit vector (the pair `(a_i, b_i)/sqrt(1+tau^2)` is orthonormal in 6D).
fn icosahedral_bases() -> ([[f64; 3]; 6], [[f64; 3]; 6]) {
    let a = [
        [1.0, TAU, 0.0],
        [-1.0, TAU, 0.0],
        [0.0, 1.0, TAU],
        [0.0, -1.0, TAU],
        [TAU, 0.0, 1.0],
        [-TAU, 0.0, 1.0],
    ];
    let b = [
        [TAU, -1.0, 0.0],
        [-TAU, -1.0, 0.0],
        [0.0, TAU, -1.0],
        [0.0, -TAU, -1.0],
        [-1.0, 0.0, TAU],
        [1.0, 0.0, TAU],
    ];
    (a, b)
}

/// Generate the vertex set of an icosahedral quasicrystal by
/// cut-and-project. Returns positions (centred at the origin) and the
/// perpendicular-space norms used for decoration.
pub fn icosahedral_quasicrystal(p: &QcParams) -> (Vec<[f64; 3]>, Vec<f64>) {
    let (a, b) = icosahedral_bases();
    let norm = (1.0 + TAU * TAU).sqrt();
    let scale = p.lattice_constant / norm;
    let n = p.n_range;
    let mut positions = Vec::new();
    let mut perp_norms = Vec::new();
    // iterate over Z^6 box
    let mut idx = [0i32; 6];
    // the recursion threads the whole cut-and-project state explicitly
    #[allow(clippy::too_many_arguments)]
    fn rec(
        d: usize,
        idx: &mut [i32; 6],
        n: i32,
        a: &[[f64; 3]; 6],
        b: &[[f64; 3]; 6],
        scale: f64,
        norm: f64,
        window: f64,
        positions: &mut Vec<[f64; 3]>,
        perp_norms: &mut Vec<f64>,
    ) {
        if d == 6 {
            let mut xp = [0.0f64; 3];
            let mut xq = [0.0f64; 3];
            for i in 0..6 {
                for k in 0..3 {
                    xp[k] += idx[i] as f64 * a[i][k];
                    xq[k] += idx[i] as f64 * b[i][k];
                }
            }
            let perp = (xq[0] * xq[0] + xq[1] * xq[1] + xq[2] * xq[2]).sqrt() / norm;
            if perp <= window {
                positions.push([xp[0] * scale, xp[1] * scale, xp[2] * scale]);
                perp_norms.push(perp);
            }
            return;
        }
        for v in -n..=n {
            idx[d] = v;
            rec(
                d + 1,
                idx,
                n,
                a,
                b,
                scale,
                norm,
                window,
                positions,
                perp_norms,
            );
        }
    }
    rec(
        0,
        &mut idx,
        n,
        &a,
        &b,
        scale,
        norm,
        p.window,
        &mut positions,
        &mut perp_norms,
    );
    (positions, perp_norms)
}

/// Carve a nanoparticle of radius `r` out of the quasicrystal and decorate
/// it (Yb inside the inner perpendicular window, Cd outside), shifted so
/// the particle is centred in a cubic box with `vacuum` padding.
pub fn nanoparticle(p: &QcParams, r: f64, vacuum: f64) -> Structure {
    let (pos, perp) = icosahedral_quasicrystal(p);
    let mut positions = Vec::new();
    let mut species: Vec<&'static str> = Vec::new();
    for (x, &w) in pos.iter().zip(&perp) {
        let rr = (x[0] * x[0] + x[1] * x[1] + x[2] * x[2]).sqrt();
        if rr <= r {
            positions.push(*x);
            species.push(if w < p.yb_window_fraction * p.window {
                "Yb"
            } else {
                "Cd"
            });
        }
    }
    let box_l = 2.0 * (r + vacuum);
    for q in positions.iter_mut() {
        for k in 0..3 {
            q[k] += box_l / 2.0;
        }
    }
    Structure {
        positions,
        species,
        cell: [box_l; 3],
        periodic: [false; 3],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rotation matrix by angle `t` about unit axis `u` (Rodrigues).
    fn rotation_about(u: [f64; 3], t: f64) -> [[f64; 3]; 3] {
        let (c, s) = (t.cos(), t.sin());
        let mut r = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                let eps = |i: usize, j: usize, k: usize| -> f64 {
                    match (i, j, k) {
                        (0, 1, 2) | (1, 2, 0) | (2, 0, 1) => 1.0,
                        (0, 2, 1) | (2, 1, 0) | (1, 0, 2) => -1.0,
                        _ => 0.0,
                    }
                };
                let mut cross = 0.0;
                for k in 0..3 {
                    cross += eps(i, j, k) * u[k];
                }
                r[i][j] = c * if i == j { 1.0 } else { 0.0 } + (1.0 - c) * u[i] * u[j] - s * cross;
            }
        }
        r
    }

    fn small_params() -> QcParams {
        // small lattice constant so several shells fall inside the test
        // balls below (nearest projected neighbours sit at ~lattice_constant)
        QcParams {
            lattice_constant: 5.0,
            window: 1.5,
            yb_window_fraction: 0.45,
            n_range: 2,
        }
    }

    #[test]
    fn point_set_is_nonempty_and_origin_included() {
        let (pos, _) = icosahedral_quasicrystal(&small_params());
        assert!(pos.len() > 50, "got {} points", pos.len());
        assert!(pos.iter().any(|p| p.iter().all(|&c| c.abs() < 1e-12)));
    }

    #[test]
    fn five_fold_symmetry_about_an_icosahedral_axis() {
        // a spherical window makes the projected set invariant under the
        // icosahedral group; check the 72-degree rotation about a 5-fold
        // axis maps the set onto itself
        let (pos, _) = icosahedral_quasicrystal(&small_params());
        let nrm = (1.0 + TAU * TAU).sqrt();
        let axis = [1.0 / nrm, TAU / nrm, 0.0]; // the a_1 direction
        let rot = rotation_about(axis, 2.0 * std::f64::consts::PI / 5.0);
        // restrict to a modest ball so every rotated partner is inside the
        // enumerated range
        let inner: Vec<[f64; 3]> = pos
            .iter()
            .filter(|p| (p[0].powi(2) + p[1].powi(2) + p[2].powi(2)).sqrt() < 12.0)
            .cloned()
            .collect();
        assert!(inner.len() > 10);
        for p in &inner {
            let q = [
                rot[0][0] * p[0] + rot[0][1] * p[1] + rot[0][2] * p[2],
                rot[1][0] * p[0] + rot[1][1] * p[1] + rot[1][2] * p[2],
                rot[2][0] * p[0] + rot[2][1] * p[1] + rot[2][2] * p[2],
            ];
            let found = pos.iter().any(|r| {
                (r[0] - q[0]).abs() < 1e-6
                    && (r[1] - q[1]).abs() < 1e-6
                    && (r[2] - q[2]).abs() < 1e-6
            });
            assert!(found, "rotated image of {p:?} missing");
        }
    }

    #[test]
    fn aperiodicity_no_short_translation_maps_set_to_itself() {
        // crystals have lattice translations; the QC must not (test a few
        // candidate short difference vectors on an inner ball)
        let (pos, _) = icosahedral_quasicrystal(&small_params());
        let inner: Vec<[f64; 3]> = pos
            .iter()
            .filter(|p| (p[0].powi(2) + p[1].powi(2) + p[2].powi(2)).sqrt() < 10.0)
            .cloned()
            .collect();
        // candidate translations: differences from the origin to its
        // nearest neighbours
        let mut candidates: Vec<[f64; 3]> = inner
            .iter()
            .filter(|p| {
                let r = (p[0].powi(2) + p[1].powi(2) + p[2].powi(2)).sqrt();
                r > 1e-9 && r < 10.0
            })
            .cloned()
            .collect();
        candidates.truncate(6);
        assert!(!candidates.is_empty());
        for t in candidates {
            let mut all_mapped = true;
            for p in &inner {
                let q = [p[0] + t[0], p[1] + t[1], p[2] + t[2]];
                if (q[0].powi(2) + q[1].powi(2) + q[2].powi(2)).sqrt() > 10.0 {
                    continue; // outside the tested ball
                }
                let found = pos.iter().any(|r| {
                    (r[0] - q[0]).abs() < 1e-6
                        && (r[1] - q[1]).abs() < 1e-6
                        && (r[2] - q[2]).abs() < 1e-6
                });
                if !found {
                    all_mapped = false;
                    break;
                }
            }
            assert!(!all_mapped, "translation {t:?} maps the QC to itself");
        }
    }

    #[test]
    fn nanoparticle_composition_is_tsai_like() {
        let p = QcParams {
            n_range: 3,
            ..QcParams::default()
        };
        let np = nanoparticle(&p, 28.0, 8.0);
        assert!(np.n_atoms() > 100, "atoms: {}", np.n_atoms());
        let yb = np.count("Yb");
        let cd = np.count("Cd");
        assert!(yb > 0 && cd > 0);
        let ratio = cd as f64 / yb as f64;
        // experimental YbCd5.7; accept a broad Tsai-like band
        assert!(
            ratio > 2.0 && ratio < 12.0,
            "Cd/Yb ratio {ratio} ({cd}/{yb})"
        );
        // atoms sit inside the box with the requested vacuum
        for q in &np.positions {
            for k in 0..3 {
                assert!(q[k] > 4.0 && q[k] < np.cell[k] - 4.0);
            }
        }
    }

    #[test]
    fn minimum_distance_is_physical() {
        let (pos, _) = icosahedral_quasicrystal(&small_params());
        // brute-force min distance within an inner ball
        let inner: Vec<[f64; 3]> = pos
            .iter()
            .filter(|p| (p[0].powi(2) + p[1].powi(2) + p[2].powi(2)).sqrt() < 10.0)
            .cloned()
            .collect();
        let mut dmin = f64::INFINITY;
        for i in 0..inner.len() {
            for j in (i + 1)..inner.len() {
                let d = ((inner[i][0] - inner[j][0]).powi(2)
                    + (inner[i][1] - inner[j][1]).powi(2)
                    + (inner[i][2] - inner[j][2]).powi(2))
                .sqrt();
                dmin = dmin.min(d);
            }
        }
        assert!(dmin > 1.0, "atoms unphysically close: {dmin}");
    }

    #[test]
    fn rotation_matrix_is_orthogonal() {
        let r = rotation_about([0.0, 0.0, 1.0], 0.7);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = (0..3).map(|k| r[k][i] * r[k][j]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-12);
            }
        }
    }
}
