//! Canonical cache keys for converged-state reuse.
//!
//! Two submissions describe "the same calculation" when their atoms, mesh,
//! functional and electronic-structure knobs agree physically — even if the
//! atoms are listed in a different order or positions in a periodic
//! direction are shifted by whole lattice lengths. The key is therefore a
//! hash of a *canonical form*: every continuous quantity is quantized to a
//! fixed integer grid first (no floating-point equality anywhere), atoms
//! are sorted by their quantized tuple (fixed-order hashing), and periodic
//! coordinates enter as fractional positions modulo one lattice length.
//!
//! Resource hints (`ranks`, `grid_hint`) and convergence knobs (`tol`,
//! `max_iter`) are deliberately *excluded*: they change how the answer is
//! computed, not what it is, and a warm start is only an optimization hint.

use crate::job::{JobSpec, MeshSpec};
use dft_core::cluster::codec::Fnv1a;
use dft_core::system::AtomKind;

/// Charge-model quantization: 1e-9 on charges and smearing lengths.
fn quant_charge(x: f64) -> i64 {
    (x * 1e9).round() as i64
}

/// Non-periodic coordinates: absolute, quantized at 1e-8 Bohr.
fn quant_abs(x: f64) -> i64 {
    (x * 1e8).round() as i64
}

/// Periodic coordinates: fractional position on a 2^32 grid, modulo the
/// lattice length — `p` and `p + L` land on the same integer, as do `p`
/// within rounding of `L` and `0`.
fn quant_frac(p: f64, l: f64) -> i64 {
    let frac = (p / l).rem_euclid(1.0);
    let q = (frac * 4_294_967_296.0).round() as u64;
    (q % (1u64 << 32)) as i64
}

/// Canonical per-atom tuple: charge-model tag, quantized charge and
/// smearing, per-axis quantized position (fractional on periodic axes).
fn atom_tuple(kind: &AtomKind, pos: [f64; 3], mesh: &MeshSpec) -> (u8, i64, i64, [i64; 3]) {
    let (tag, z, r_c) = match *kind {
        AtomKind::Pseudo { z, r_c } => (1u8, z, r_c),
        AtomKind::AllElectron { z, r_c } => (2u8, z, r_c),
    };
    let mut q = [0i64; 3];
    for ax in 0..3 {
        q[ax] = if mesh.periodic[ax] {
            quant_frac(pos[ax], mesh.lengths[ax])
        } else {
            quant_abs(pos[ax])
        };
    }
    (tag, quant_charge(z), quant_charge(r_c), q)
}

/// Key identifying the discretization alone — used to share one `FeSpace`
/// (with its precomputed gather/scatter tables) among all jobs on the same
/// mesh, whatever their atoms.
pub fn mesh_key(mesh: &MeshSpec) -> u64 {
    let mut h = Fnv1a::default();
    h.write(b"mesh-v1");
    for ax in 0..3 {
        h.write_u64(mesh.cells[ax] as u64);
        h.write_i64(quant_charge(mesh.lengths[ax]));
        h.write(&[u8::from(mesh.periodic[ax])]);
    }
    h.write_u64(mesh.degree as u64);
    h.0
}

/// The converged-state cache key: canonical hash of (structure, mesh,
/// functional, electronic knobs).
pub fn cache_key(spec: &JobSpec) -> u64 {
    let mut h = Fnv1a::default();
    h.write(b"job-v1");
    h.write_u64(mesh_key(&spec.mesh));
    h.write(spec.functional.tag().as_bytes());
    h.write_u64(spec.n_states as u64);
    // smearing temperature quantized at 1e-12 Ha
    h.write_i64((spec.kt * 1e12).round() as i64);
    for k in &spec.kpts {
        for ax in 0..3 {
            h.write_i64((k.frac[ax] * 4_294_967_296.0).round() as i64);
        }
        h.write_i64((k.weight * 1e12).round() as i64);
    }

    // atoms in canonical (sorted) order, so submission order is irrelevant
    let mut atoms: Vec<(u8, i64, i64, [i64; 3])> = spec
        .atoms
        .iter()
        .map(|a| atom_tuple(&a.kind, a.pos, &spec.mesh))
        .collect();
    atoms.sort_unstable();
    for (tag, z, r_c, q) in atoms {
        h.write(&[tag]);
        h.write_i64(z);
        h.write_i64(r_c);
        for v in q {
            h.write_i64(v);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use dft_core::system::Atom;

    fn pseudo(z: f64, r_c: f64, pos: [f64; 3]) -> Atom {
        Atom {
            kind: AtomKind::Pseudo { z, r_c },
            pos,
        }
    }

    fn demo_spec() -> JobSpec {
        JobSpec::miniature(
            vec![
                pseudo(2.0, 0.8, [1.0, 2.0, 3.0]),
                pseudo(1.0, 0.6, [4.0, 4.5, 0.5]),
                pseudo(2.0, 0.8, [5.5, 1.5, 2.5]),
            ],
            6.0,
        )
    }

    /// Listing the same atoms in any order yields the same key.
    #[test]
    fn permuted_atoms_hash_equal() {
        let a = demo_spec();
        let mut b = a.clone();
        b.atoms.rotate_left(1);
        let mut c = a.clone();
        c.atoms.swap(0, 2);
        assert_eq!(cache_key(&a), cache_key(&b));
        assert_eq!(cache_key(&a), cache_key(&c));
    }

    /// Shifting a position by whole lattice lengths along periodic axes is
    /// the same crystal; on the cell boundary, `0` and `L` coincide.
    #[test]
    fn lattice_equivalent_positions_hash_equal() {
        let a = demo_spec();
        let l = a.mesh.lengths[0];
        let mut b = a.clone();
        b.atoms[0].pos[0] += l;
        b.atoms[1].pos[1] -= 2.0 * l;
        b.atoms[2].pos[2] += 3.0 * l;
        assert_eq!(cache_key(&a), cache_key(&b));

        let mut edge0 = demo_spec();
        edge0.atoms[0].pos = [0.0, 1.0, 1.0];
        let mut edge_l = demo_spec();
        edge_l.atoms[0].pos = [l, 1.0, 1.0];
        assert_eq!(cache_key(&edge0), cache_key(&edge_l));
    }

    /// A physically perturbed structure gets a different key.
    #[test]
    fn perturbed_structures_hash_differently() {
        let a = demo_spec();
        let mut moved = a.clone();
        moved.atoms[1].pos[2] += 0.05;
        assert_ne!(cache_key(&a), cache_key(&moved));

        let mut heavier = a.clone();
        heavier.atoms[0].kind = AtomKind::Pseudo { z: 3.0, r_c: 0.8 };
        assert_ne!(cache_key(&a), cache_key(&heavier));

        let mut more_states = a.clone();
        more_states.n_states += 1;
        assert_ne!(cache_key(&a), cache_key(&more_states));

        let mut hotter = a.clone();
        hotter.kt *= 2.0;
        assert_ne!(cache_key(&a), cache_key(&hotter));

        let mut gga = a.clone();
        gga.functional = crate::job::Functional::Pbe;
        assert_ne!(cache_key(&a), cache_key(&gga));
    }

    /// Convergence/resource knobs do not enter the key (a warm start is a
    /// hint, not part of the problem identity).
    #[test]
    fn resource_knobs_do_not_change_the_key() {
        let a = demo_spec();
        let mut b = a.clone();
        b.tol *= 0.1;
        b.max_iter += 100;
        b.ranks = 4;
        b.cheb_degree += 10;
        b.first_iter_cf_passes += 1;
        assert_eq!(cache_key(&a), cache_key(&b));
    }

    /// The key of one fixed spec is stable across builds: a changed hasher,
    /// field order or quantization would silently orphan every cached state.
    #[test]
    fn cache_key_of_a_fixed_spec_is_pinned() {
        assert_eq!(cache_key(&demo_spec()), 0x2248_249c_f033_424f);
        assert_eq!(mesh_key(&demo_spec().mesh), 0x3de6_0f20_dba1_a175);
    }

    /// Different meshes never collide with each other's FeSpace entry.
    #[test]
    fn mesh_key_separates_discretizations() {
        let a = MeshSpec::cube(2, 6.0, 2);
        let mut b = a;
        b.degree = 3;
        let mut c = a;
        c.lengths[1] = 7.0;
        let mut d = a;
        d.periodic[2] = false;
        assert_ne!(mesh_key(&a), mesh_key(&b));
        assert_ne!(mesh_key(&a), mesh_key(&c));
        assert_ne!(mesh_key(&a), mesh_key(&d));
    }
}
