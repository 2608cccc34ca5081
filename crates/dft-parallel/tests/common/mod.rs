//! Shared by the multi-rank suites: what a run replicates, it replicates to
//! the bit.

use dft_parallel::DistScfResult;

/// The free energy, every eigenvalue and the density of one run are
/// bit-identical on all of its ranks.
pub fn assert_ranks_agree<'a>(results: impl IntoIterator<Item = &'a DistScfResult>, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut ranks = results.into_iter();
    let first = ranks.next().expect("a run has at least one rank");
    for r in ranks {
        let who = format!("{what}: rank {} vs rank {}", r.rank, first.rank);
        assert_eq!(
            r.energy.free_energy.to_bits(),
            first.energy.free_energy.to_bits(),
            "{who}: free energy"
        );
        assert_eq!(r.eigenvalues.len(), first.eigenvalues.len(), "{who}");
        for (k, (a, b)) in r.eigenvalues.iter().zip(&first.eigenvalues).enumerate() {
            assert_eq!(bits(a), bits(b), "{who}: eigenvalues of k-point {k}");
        }
        assert_eq!(
            bits(&r.density.values),
            bits(&first.density.values),
            "{who}: density"
        );
    }
}
