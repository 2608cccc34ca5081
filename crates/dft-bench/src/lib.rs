//! # dft-bench
//!
//! The paper-reproduction harness: one binary per table and figure of the
//! paper (see DESIGN.md Sec. 4 for the experiment index), plus the shared
//! system definitions and the miniature invDFT->MLXC training pipeline used
//! by several experiments. How fast the solver itself runs is measured by
//! `benchmark/` (see `benchmark/README.md`), not here.

#![deny(unsafe_code)]

pub mod pipeline;
pub mod systems;

pub use pipeline::{train_mlxc_from_invdft, MiniSystem, PipelineConfig};
pub use systems::{
    disloc_mg_y, twin_disloc_mg_y_a, twin_disloc_mg_y_b, twin_disloc_mg_y_c, ybcd_quasicrystal,
};

/// Pretty-print a separator-titled section.
pub fn section(title: &str) {
    println!();
    println!("==== {title} ====");
}
