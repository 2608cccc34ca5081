#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, release build, full test suite.
# Everything runs offline — external crates are vendored under vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run"
cargo bench --offline --workspace --no-run

echo "==> dft-lint (project invariants: L001-L009, incl. the L006-L008 collective-protocol prover and the L009 production-caller check)"
cargo run -q --offline --release -p dft-lint -- --workspace --deny-all --summary
mkdir -p target
cargo run -q --offline --release -p dft-lint -- --workspace --json > target/dft-lint.json
echo "    JSON artifact: target/dft-lint.json"

echo "==> duplicate-definition and retired-name guards (one SCF spine, one binary codec, one measuring stack, one cell sweep whatever the block layout, one distributed route, one ChFES cycle, one Chebyshev recurrence, one recurrence update, one rooted collective, one KS eigensolve step, one Fermi-Dirac function, one FE derivative, one trajectory loop, one durable writer, one thread-cap helper, one overlap model, one initial subspace, one dense eigensolver, one cell kernel, one Hamiltonian body, one shaped GEMM entry point, one triangle mirror, one SCF loop, one rank solver, one Lanczos recurrence with one start vector, one force assembly, one electrostatic solve, one block-MINRES and one invDFT adjoint preconditioner)"
for f in phases_for poisson_flops poisson_bytes poisson_bc_of fnv1a sweep_item chebyshev_filter_gated recurrence_update ks_eigensolve accumulate_density fermi deriv_mass deriv_mass_t trajectory_rank write_durable read_durable with_threads with_thread_share pipelined_blocks random_subspace eigh output_transform dof_potential ham_apply_flops filter_phase gemm_shaped hermitian_from_lower scf_loop distributed_scf lanczos_reduced lanczos_start distributed_forces_profiled solve_electrostatics block_minres laplacian_diagonal_prec; do
  n=$(grep -rhE "^\s*(pub(\([a-z]+\))? )?fn ${f}\b" crates/*/src | wc -l)
  if [ "$n" -ne 1 ]; then
    echo "    fn $f is defined $n times under crates/*/src (expected exactly 1)"
    exit 1
  fi
done
# Retired names may not come back under crates/*/src or scripts. One list,
# "what it was|pattern"; every pattern is split so this script does not match
# itself.
#  - benchmark/ is the only yardstick and the GEMM blocking is a constant
#    (the artifact gate and the tuning file, PR 16);
#  - one route through the distributed solver: the slab is the n x 1 x 1
#    grid, one filter driver, a relaxation step warm-starts iff its run has a
#    checkpoint_dir, a screening job is an Scf job (PR 19);
#  - one ChFES cycle over a rank's band window, one CholGS cleanup route,
#    one windowed mixed product, one reduce_matrix (PR 20);
#  - one rooted collective: the world is the group 0..n (no world-only
#    broadcast / scalar allgather, no bands for them), ChFES does not ask the
#    reducer whether it is distributed, and dist_relax is the relax driver;
#  - one FE derivative and one GGA body: the collocation derivative and its
#    transpose live in dft-fem and reach nodes through the cell tables, the
#    MLXC divergence adapter owns its space, PBE and the hidden truth are
#    parameter sets of one energy density;
#  - one trajectory loop: BO-MD is velocity Verlet stepped by the loop that
#    steps FIRE, with one record and one result type, and the distributed
#    Hamiltonian carries the filter's wire itself (no FP32-wire twin);
#  - production code is what production calls: the two-stream overlap is
#    its closed form (no event queue), CholGS is the one orthonormalization
#    (no Löwdin, no inverse square root), and scf() picks the scalar path;
#  - every knob has a second value: the single-valued solver knobs are
#    constants (Anderson fraction, invDFT step / passes / MINRES limits,
#    FIRE time steps and trust radius, the pipeline's net, the server's
#    restart budget, the schedule's sub-block and CCL switch), the SCF does
#    not print (no root-rank query for it), and the snapshot cadence lives
#    in the distributed config;
#  - one dense eigensolver: eigh is Householder tridiagonalization plus
#    implicit QL, and the cyclic Jacobi sweep lives only in the test oracle
#    (crates/dft-linalg/tests/eig_oracle.rs);
#  - each thread filters its own panel: a local operator's CF phase runs
#    whole-degree tasks of at most eight columns side by side, so no
#    operator sizes a per-step filter block any more;
#  - one cell kernel: every apply, the nodal one included, runs the blocked
#    sweep, so the scalar seed kernel and the seed-era reference apply with
#    its axis-rederiving gather and scatter are gone (their oracle role is
#    the dense cell assembly in crates/dft-fem/tests/golden_stiffness.rs);
#  - one SCF solver: scf() is the rank solve on a one-rank cluster, so the
#    serial seam, the trait that separated it from the rank's, the loop's
#    own error type and the serial entry behind scf() are gone;
#  - one Hamiltonian per rank: the Lanczos bounds run on the operator the
#    rank filters with, its sums reduced over the grid row, so no rank
#    builds the replicated full-row operator for them;
#  - one force assembly: compute_forces is the rank's assembly on a one-rank
#    cluster, and a lost force reduction is a ForceError, not an error type
#    of its own;
#  - the dense cell-batched route no solve runs: every apply is the
#    sum-factorized sweep, and the one dense-cell operator left is the
#    criterion bench's per-cell GEMM arm;
#  - ranks get their share of the cores where they are made: run_cluster
#    caps each rank, so no rank entry caps itself and no entry has an
#    already-capped twin, a rank's SCF result is the ScfResult (the
#    re-export crate keeps only an alias for benchmark/), one send has one
#    name, and slow links are the schedule explorer's seeded delays, not a
#    fault rule;
#  - production code is what production calls: L009 resolves a method
#    through its type, and the methods that only tests (or nothing)
#    reached are gone, as are the two scratch-pool checkouts that one
#    with_scratch keyed by buffer type replaced.
retired=(
  "benchmark-gate / tuning-file name|DFT_T""UNE|dft_t""une\.json|BEN""CH_|DFT_BEN""CH_GATE"
  "sibling path of the distributed solver, or the knob that selected it|Cluster""Reducer|enum Red""ucer|grid\.is_so""me\(\)|JobKind::Scr""een|warm_st""art:|with_over""lap|Pipelined""Filter|Cf""Driver"
  "ChFES fork, shim or sibling product|band_sp""lit|adjoint_product_mi""xed|adjoint_block_mi""xed|chfes_prof""iled|CfFil""ter|reduce_matrix_ex""act"
  "world-only collective, its tag band, the is-distributed fork or the serial relax driver|allgather_sc""alar|\bbroadcast_f""64|GATHER_BA""ND|BROADCAST_BA""ND|is_distri""buted|fn rel""ax\("
  "private copy of the FE derivative, its node map, its adapter shim or a per-functional GGA body|cell_local_to_""node|apply_deriv_""mass|ArcFeDiver""gence|GgaFo""rm"
  "second trajectory loop, its record and result types, or the filter twin of the Hamiltonian|md_r""ank|MdStep""Record|DistMd""Result|h_fil""ter"
  "discrete-event timeline, second orthonormalization or forced-complex SCF entry|Time""line|Task""Id|low""din|\binv_s""qrt\b|scf_com""plex"
  "cyclic Jacobi sweep or its eigenpair sort (the eigh oracle lives in tests)|max_swe""eps|fn sort_e""ig"
  "per-step filter block rule of the local operator|max_filter_bl""ock"
  "scalar seed cell kernel or the seed-era reference apply|fn cell_stiffness_ap""ply<|apply_stiffness_refer""ence|gather_cell_dofs_r""ef|scatter_add_cell_dofs_r""ef"
  "serial seam, the seam trait, the loop's error type or the serial entry|Serial""Seam|Scf""Seam|ScfLoop""Error|scf_se""rial"
  "replicated full-row operator of a rank's Lanczos bounds|h_f""ull"
  "second force error type of the rank's assembly|DistForce""Error"
  "dense cell-batched GEMM route|batched_ge""mm|BatchLay""out"
  "rank entry that caps itself, its capped twin, the SCF result copy, the second send name or the fault delay rule|rank_thr""eads|scf_ra""nk|forces_ra""nk|fn distributed_for""ces\(|struct DistScf""Result|isend_f""64|DelayR""ule"
  "method only tests or nothing reached, or a retired scratch-pool checkout|fn sc""ale\(&mut self|fn l""r\(|fn zer""os\(space:|pub fn que""ued\(|pub fn epo""ch\(|pub fn cle""ar\(&self\)|fn sco""pe\(&self, phase|pub fn ener""gy\(&self, rho|Batched""Mlp|pub fn inn""er\(&self, space|pub fn ev""al\(&self, space|fn loc""ate\(|fn eval_""all\(|fn from_l""ow\(m:|pub fn to""tal\(&self\)|pub fn sta""rt\(&self\)|pub fn integ""rate\(&self, f: &\[f64\]\)|with_pack_""buf|with_scr""atch3"
  "single-valued solver knob, the SCF's root-rank query or the serial snapshot cadence|mixing_al""pha|base\.checkpoint_ev""ery|fn is_ro""ot|cfg\.st""ep\b|eig_pa""sses|minres_t""ol|minres_max_it""er|dt_m""ax|max_di""sp|FireState::new\(.*,|quick_n""et|cfg\.max_resta""rts|knobs\.max_resta""rts|sub_blo""ck|opts\.use_c""cl"
)
for entry in "${retired[@]}"; do
  if grep -rnE "${entry#*|}" crates/*/src scripts; then
    echo "    retired ${entry%%|*} reappeared (see above)"
    exit 1
  fi
done

# One durable writer (codec::write_durable): every on-disk format reaches the
# disk through it, so it holds the only fsync of the solver crates.
n=$(grep -rF "sync_all(" crates/*/src | wc -l)
if [ "$n" -ne 1 ]; then
  echo "    sync_all( appears $n times under crates/*/src (expected exactly 1, in the one durable writer)"
  grep -rnF "sync_all(" crates/*/src
  exit 1
fi

# Inverse DFT runs the SCF's Kohn-Sham eigensolve step (ks_eigensolve): no
# Lanczos bounds, ChFES call or filter-window rule of its own.
if grep -rnE "lanczos_bounds\(|chfes\(" crates/dft-invdft/src; then
  echo "    crates/dft-invdft/src calls the eigensolver directly instead of through ks_eigensolve (see above)"
  exit 1
fi

# The SCF and inverse DFT do not print: a run reports through its result
# (residual history, profile), so the solver crates hold no print.
if grep -rnE "\bprint(ln)?!" crates/dft-core/src crates/dft-invdft/src; then
  echo "    a print in crates/dft-core/src or crates/dft-invdft/src (see above)"
  exit 1
fi

# One home for the ranks: everything a rank runs lives in dft-core's
# cluster module. The old crate survives only as re-exports for benchmark/,
# so nothing else may name it, and it may hold no code of its own.
old_crate="dft[-_]para""llel"
if grep -rnE "$old_crate" crates/*/src crates/*/Cargo.toml src tests examples scripts \
  | grep -v "^crates/dft-para""llel/"; then
  echo "    the code-free re-export crate is named outside itself (see above); import from dft_core::cluster"
  exit 1
fi
if grep -rnE "\b(fn|struct|enum|trait|impl)\b" "crates/dft-para""llel/src"; then
  echo "    crates/dft-para""llel/src holds code (see above); it may only re-export dft_core names"
  exit 1
fi

# One cell kernel: the blocked cell sweep (FeSpace::sweep_cells) serves the
# serial apply, the nodal apply, the Poisson solves and every rank's slab.
# The scalar seed kernel is gone from every src (retired above), and no
# test or bench may carry a copy of it either.
if grep -rnE "cell_stiffness_ap""ply(\(|<)" crates --include='*.rs'; then
  echo "    the scalar seed cell kernel is back under crates/ (see above)"
  exit 1
fi

# Every parallel region runs on the one persistent pool of the rayon shim:
# no scoped spawn per region may come back. The only scoped threads are the
# ranks of a cluster.
scoped=$(grep -rn "thread::scope" vendor/rayon crates/*/src || true)
launcher=$(grep -n "^pub fn run_cluster_with" crates/dft-hpc/src/comm.rs | cut -d: -f1)
if [ "$(echo "$scoped" | grep -c .)" -ne 1 ] \
  || [ "${scoped%%:*}" != "crates/dft-hpc/src/comm.rs" ] \
  || [ "$(echo "$scoped" | cut -d: -f2)" -le "$launcher" ]; then
  echo "    thread::scope under vendor/rayon or crates/*/src outside run_cluster_with:"
  echo "$scoped"
  exit 1
fi

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test -q"
cargo test -q --offline --workspace

echo "==> fault-injection suite (kills, timeouts, checkpoint/restart recovery)"
cargo test -q --offline --release -p dft-core --test fault_tolerance

echo "==> process-grid suite (2x2 and 2x2x2 layouts, slab = no grid, reduce legs, FP32 subspace, reshard restart)"
cargo test -q --offline --release -p dft-core --test grid

echo "==> serve suite (multi-tenant scheduler: bursts, admission control, preemption, rank kill)"
cargo test -q --offline --release -p dft-serve

echo "==> relax/MD suite (distributed force parity/determinism, the pinned FIRE trajectory, warm starts)"
cargo test -q --offline --release -p dft-core --test forces

echo "==> comm sanitizer (debug profile): message-leak + tag-band runtime checks"
cargo test -q --offline -p dft-hpc --features sanitize comm::
cargo test -q --offline -p dft-core --features sanitize --test fault_tolerance

echo "==> schedule-exploration gate (8 seeded delivery schedules, bit-identity; skip with DFT_SCHED_EXPLORE=off)"
if [ "${DFT_SCHED_EXPLORE:-on}" = "off" ]; then
  echo "    skipped (DFT_SCHED_EXPLORE=off)"
else
  cargo test -q --offline --release -p dft-hpc explore::
  cargo test -q --offline --release -p dft-core --test schedule
  cargo test -q --offline -p dft-core --features sanitize --test schedule
fi

echo "==> thread-count suite (pool of 1 and of 4 threads: shim contract, the GEMM engine's thread split and triangle shapes, row-slab, lane-panel, touch-table, filter-task, k-point-lane and thread-cap bit-identity, rank thread shares (dft-core's threads:: tests), a panicking job, scf-2k's reference energy and iteration pin at every lane shape, scf-wide's with its twelve filter tasks on 1 or 4 threads, scf-poisson's with its one task cut into as many row slabs as the cap allows, dist-2r's pins and its dist-vs-serial gate wherever the thread cap splits its narrowed filter blocks into column blocks and row slabs)"
for nt in 1 4; do
  RAYON_NUM_THREADS=$nt cargo test -q --offline --release -p rayon
  RAYON_NUM_THREADS=$nt cargo test -q --offline --release -p dft-linalg
  RAYON_NUM_THREADS=$nt cargo test -q --offline --release -p dft-fem --lib space::tests
  RAYON_NUM_THREADS=$nt cargo test -q --offline --release -p dft-core --lib
  RAYON_NUM_THREADS=$nt cargo test -q --offline --release -p dft-core --test dist_oracle
  RAYON_NUM_THREADS=$nt cargo test -q --offline --release -p dft-serve --test serve solver_panic
  RAYON_NUM_THREADS=$nt bash benchmark/run.sh --workload scf-2k --seed 1 --trace 0
  RAYON_NUM_THREADS=$nt bash benchmark/run.sh --workload scf-wide --seed 1 --trace 0
  RAYON_NUM_THREADS=$nt bash benchmark/run.sh --workload scf-poisson --seed 1 --trace 0
  RAYON_NUM_THREADS=$nt bash benchmark/run.sh --workload dist-2r --seed 1 --trace 0
done

echo "==> forced-fallback suite (DFT_SIMD=scalar: scalar tile must bit-match its oracle)"
DFT_SIMD=scalar cargo test -q --offline --release -p dft-linalg --test simd_parity
DFT_SIMD=scalar cargo test -q --offline --release -p dft-fem

echo "==> benchmark harness tests (benchmark/ is its own package; bash benchmark/run.sh is the yardstick)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark correctness gate (scf-wide, scf-poisson, scf-2k, dist-2r, relax-warm-2r and serve-burst, seed 1: reference energy within 1e-8 Ha, pinned SCF iteration count, |E_dist - E_serial| <= 1e-10 Ha, every relaxation step after the first warm, every served job converged at its structure's cold energy)"
bash benchmark/run.sh --workload scf-wide --seed 1 --trace 0
bash benchmark/run.sh --workload scf-poisson --seed 1 --trace 0
bash benchmark/run.sh --workload scf-2k --seed 1 --trace 0
bash benchmark/run.sh --workload dist-2r --seed 1 --trace 0
bash benchmark/run.sh --workload relax-warm-2r --seed 1 --trace 0
bash benchmark/run.sh --workload serve-burst --seed 1 --trace 0

echo "==> CI green"
