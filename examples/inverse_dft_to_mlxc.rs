//! The full methodological pipeline of the paper's Fig. 2, end to end:
//!
//! 1. "QMB" reference densities (hidden-truth functional, DESIGN.md S2);
//! 2. **invDFT**: recover the exact XC potential from each density;
//! 3. **MLXC**: train the neural functional on the `{rho, v_xc}` pairs;
//! 4. **DFT-FE-MLXC**: run the SCF with the trained functional on a
//!    held-out system and compare against the truth.
//!
//! ```sh
//! cargo run --release --example inverse_dft_to_mlxc
//! ```

use dft_fe_mlxc::core::forces::ForceError;
use dft_fe_mlxc::core::scf::{scf, KPoint};
use dft_fe_mlxc::core::xc::{Lda, MlxcFunctional, SyntheticTruth};
use dft_fe_mlxc::qmb::scaling::projected_fci_dimension;

fn main() -> Result<(), ForceError> {
    // dft-bench hosts the shared pipeline driver
    use dft_bench_pipeline::*;
    let cfg = PipelineConfig {
        invdft_iters: 50,
        epochs: 300,
        verbose: true,
        ..PipelineConfig::default()
    };
    println!("training systems: hidden-truth SCF -> invDFT -> MLXC training");
    let train_set = MiniSystem::training_set();
    let (model, loss, diags) = train_mlxc_from_invdft(&train_set[..3], &cfg)?;
    println!(
        "\ntraining loss {:.3e} -> {:.3e}",
        loss[0],
        loss.last().unwrap()
    );
    for d in &diags {
        println!(
            "  {}: invDFT mismatch {:.2e} -> {:.2e}",
            d.name, d.invdft_first, d.invdft_last
        );
    }

    println!("\nheld-out test: SCF with MLXC vs LDA vs hidden truth");
    let ms = &MiniSystem::test_set()[0];
    let space = ms.space();
    let sys = ms.atomic_system();
    let cfg_scf = ms.scf_config();
    let truth = scf(&space, &sys, &SyntheticTruth, &cfg_scf, &[KPoint::gamma()]);
    let lda = scf(&space, &sys, &Lda, &cfg_scf, &[KPoint::gamma()]);
    let mlxc = scf(
        &space,
        &sys,
        &MlxcFunctional::new(model),
        &cfg_scf,
        &[KPoint::gamma()],
    );
    let ref_e = truth.energy.free_energy;
    println!("truth: {ref_e:+.6} Ha");
    println!(
        "LDA:   {:+.6} Ha  (error {:+.2} mHa)",
        lda.energy.free_energy,
        1000.0 * (lda.energy.free_energy - ref_e)
    );
    println!(
        "MLXC:  {:+.6} Ha  (error {:+.2} mHa)",
        mlxc.energy.free_energy,
        1000.0 * (mlxc.energy.free_energy - ref_e)
    );

    println!(
        "\n(for context: a genuine QMB treatment of this system would need a \
         determinant space of ~{:.1e} — the Fig. 1 wall)",
        projected_fci_dimension(4)
    );
    Ok(())
}

/// Re-export the shared pipeline (lives in the benchmark crate).
mod dft_bench_pipeline {
    pub use dft_bench::pipeline::*;
}
