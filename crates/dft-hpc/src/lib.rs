//! # dft-hpc
//!
//! The exascale substrate of the DFT-FE-MLXC reproduction (DESIGN.md S1).
//!
//! The paper's headline numbers come from 8,000 Frontier nodes with GPU-aware
//! MPI/RCCL and dual-stream asynchronous compute/data-movement. None of that
//! hardware exists here, so this crate provides two interlocking substitutes:
//!
//! 1. **A real message-passing runtime** ([`comm`]): ranks are OS threads,
//!    point-to-point sends and collectives move actual bytes over crossbeam
//!    channels, and the FP32 *wire precision* of the paper's mixed-precision
//!    boundary communication (Sec. 5.4.2) is implemented for real — byte
//!    counters let tests verify the claimed ~2x traffic reduction. Each rank
//!    runs on its share of the launching thread's cores ([`threads`]).
//! 2. **A calibrated performance model** ([`machine`], [`event`],
//!    [`schedule`]): machine descriptions with the paper's Sec. 6.1
//!    constants, roofline + alpha-beta (Hockney) kernel costs, the
//!    closed-form two-stream overlap of compute and communication, and
//!    schedule builders that expand one SCF iteration of Algorithm 1 (CF,
//!    CholGS, RR, DC, DH+EP) into priced operations. The headline tables and
//!    scaling figures are regenerated by running these schedules at the
//!    paper's system sizes.

#![deny(unsafe_code)]

pub mod comm;
pub mod event;
pub mod explore;
pub mod machine;
pub mod profile;
pub mod schedule;
pub mod threads;

pub use comm::{
    run_cluster, run_cluster_with, ClusterOptions, CommError, CommStats, FaultPlan, KillRule,
    ThreadComm, WirePrecision,
};
pub use explore::{
    explore_schedules, schedule_seed, schedules_from_env, ScheduleDivergence, SchedulePlan,
};
pub use machine::{ClusterSpec, GpuModel, MachineModel};
pub use profile::{IterationProfile, Phase, PhaseRecord, PhaseScope, Profile, ScfProfile};
pub use schedule::{DftSystemSpec, ScfStepReport, SolverOptions, StepTiming};
