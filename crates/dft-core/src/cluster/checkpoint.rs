//! Versioned on-disk SCF snapshots for checkpoint/restart.
//!
//! Production DFT-FE runs at the paper's scale survive node loss by
//! periodically serializing the SCF state and restarting from the last
//! complete snapshot. This module is that store at miniature scale: every
//! `checkpoint_every` iterations each rank writes one self-describing
//! binary file holding the *replicated* SCF state (input density, chemical
//! potential, Anderson mixer history, per-k filter windows, residual
//! history) plus its *sharded* state (owned global DoF ids and the local
//! wavefunction rows), then rank 0 marks the snapshot `COMPLETE` after a
//! barrier. A restart — possibly at a *different* rank count — assembles
//! the full wavefunction block from all shard files and restricts it to the
//! freshly derived deterministic partition.
//!
//! The format is deliberately exact: every `f64` travels as its own
//! little-endian bit pattern (no text round-trip), so a same-rank-count
//! resume replays bit-identically. Files end in an FNV-1a checksum and
//! are written through the crate's one durable writer (temp file,
//! `sync_all`, rename), so a torn write is detected (or never visible)
//! rather than silently resumed from.

use super::codec::{bad, push_f64, push_f64s, push_u64, read_durable, write_durable, Cur};
use super::grid::GridShape;
use super::operator::WireScalar;
use dft_linalg::matrix::Matrix;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// On-disk format version (bumped on any layout change; only this version
/// loads). Version 2 added the writing run's process-grid shape and a
/// per-shard list of the global k-point indices its wavefunction blocks
/// cover (band replicas write no blocks at all).
pub const CHECKPOINT_VERSION: u32 = 2;

const MAGIC: [u8; 8] = *b"DFTCKPT1";
const COMPLETE_MARKER: &str = "COMPLETE";

/// The replicated part of the SCF state captured at the top of an
/// iteration — identical on every rank, checkpointed by each.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicatedScfState {
    /// SCF iterations completed before this snapshot (the restart resumes
    /// at this iteration index).
    pub iteration: usize,
    /// Input density at the top of the iteration (nodal).
    pub rho_in: Vec<f64>,
    /// Chemical potential from the previous iteration.
    pub mu: f64,
    /// Anderson mixer `(rho_in, residual)` history, oldest first.
    pub mixer_history: Vec<(Vec<f64>, Vec<f64>)>,
    /// Per-k-point Chebyshev filter windows `(a0, a)`.
    pub filter_windows: Vec<Option<(f64, f64)>>,
    /// Density residual per completed iteration.
    pub residual_history: Vec<f64>,
}

/// A snapshot loaded back from disk, with the wavefunction block assembled
/// to full DoF rows (ready to restrict to any new partition — including a
/// different rank count or process-grid shape).
pub struct LoadedCheckpoint<T> {
    /// The replicated SCF state.
    pub state: ReplicatedScfState,
    /// Per k-point: the full `ndofs x n_states` wavefunction block.
    pub psi_full: Vec<Matrix<T>>,
    /// Rank count of the run that wrote the snapshot.
    pub nranks_at_write: usize,
    /// Process-grid shape of the writing run.
    pub grid_at_write: GridShape,
}

/// Directory holding one iteration's snapshot under `root`.
pub fn iter_dir(root: &Path, iteration: usize) -> PathBuf {
    root.join(format!("iter-{iteration:06}"))
}

/// Job-scoped snapshot namespace under a shared checkpoint root.
///
/// [`finalize`]'s keep-last-2 pruning assumes one writer per directory: two
/// jobs snapshotting into the *same* `checkpoint_dir` would prune each
/// other's `COMPLETE` snapshots (job A's `finalize` deletes job B's older
/// `iter-*` directories and vice versa). Multi-job drivers — the `dft-serve`
/// scheduler foremost — must therefore give every job its own subdirectory;
/// this helper is the canonical layout (`<root>/job-<id>/`). Pruning walks
/// only `iter-*` entries, so sibling job directories under one root are
/// never touched by another job's `finalize`.
pub fn job_dir(root: &Path, job_id: u64) -> PathBuf {
    root.join(format!("job-{job_id:08}"))
}

fn rank_file(root: &Path, iteration: usize, rank: usize) -> PathBuf {
    iter_dir(root, iteration).join(format!("rank-{rank}.ckpt"))
}

/// Serialize and write this rank's shard of a snapshot on the 1D slab
/// layout (every rank holds every k-point). Returns the number of bytes
/// written. The write is atomic (temp file + rename); the snapshot only
/// becomes restartable once [`finalize`] adds the `COMPLETE` marker.
pub fn write_rank<T: WireScalar>(
    root: &Path,
    rank: usize,
    nranks: usize,
    ndofs: usize,
    state: &ReplicatedScfState,
    owned: &[u32],
    psi_local: &[Matrix<T>],
) -> io::Result<u64> {
    let ks: Vec<usize> = (0..psi_local.len()).collect();
    let n_states = psi_local.first().map_or(0, Matrix::ncols);
    write_rank_grid(
        root,
        rank,
        nranks,
        ndofs,
        state,
        owned,
        psi_local,
        &ks,
        psi_local.len(),
        n_states,
        GridShape::slab(nranks),
    )
}

/// [`write_rank`] for an arbitrary process grid: `psi_local` holds this
/// rank's blocks for the global k-point indices `ks` (band replicas pass
/// both empty — they checkpoint only the replicated state), `nk` is the
/// run's total k-point count and `shape` the writing grid.
#[allow(clippy::too_many_arguments)]
pub fn write_rank_grid<T: WireScalar>(
    root: &Path,
    rank: usize,
    nranks: usize,
    ndofs: usize,
    state: &ReplicatedScfState,
    owned: &[u32],
    psi_local: &[Matrix<T>],
    ks: &[usize],
    nk: usize,
    n_states: usize,
    shape: GridShape,
) -> io::Result<u64> {
    assert_eq!(psi_local.len(), ks.len(), "one block per listed k");
    assert!(ks.iter().all(|&ik| ik < nk), "k index out of range");
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(rank as u32).to_le_bytes());
    buf.extend_from_slice(&(nranks as u32).to_le_bytes());
    buf.push(u8::from(T::COMPONENTS == 2));
    push_u64(&mut buf, state.iteration as u64);
    push_u64(&mut buf, state.rho_in.len() as u64);
    push_u64(&mut buf, ndofs as u64);
    push_u64(&mut buf, n_states as u64);
    push_u64(&mut buf, nk as u64);
    // version-2 extension: the writing grid and this shard's k coverage
    buf.extend_from_slice(&(shape.n_dom as u32).to_le_bytes());
    buf.extend_from_slice(&(shape.n_band as u32).to_le_bytes());
    buf.extend_from_slice(&(shape.n_kgrp as u32).to_le_bytes());
    push_u64(&mut buf, ks.len() as u64);
    for &ik in ks {
        push_u64(&mut buf, ik as u64);
    }

    push_f64s(&mut buf, &state.rho_in);
    push_f64(&mut buf, state.mu);
    push_u64(&mut buf, state.mixer_history.len() as u64);
    for (rho, res) in &state.mixer_history {
        push_f64s(&mut buf, rho);
        push_f64s(&mut buf, res);
    }
    push_u64(&mut buf, state.filter_windows.len() as u64);
    for w in &state.filter_windows {
        match w {
            Some((a0, a)) => {
                buf.push(1);
                push_f64(&mut buf, *a0);
                push_f64(&mut buf, *a);
            }
            None => {
                buf.push(0);
                push_f64(&mut buf, 0.0);
                push_f64(&mut buf, 0.0);
            }
        }
    }
    push_f64s(&mut buf, &state.residual_history);

    push_u64(&mut buf, owned.len() as u64);
    for &d in owned {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    for m in psi_local {
        assert_eq!(m.nrows(), owned.len());
        assert_eq!(m.ncols(), n_states);
        let mut comps = Vec::with_capacity(m.nrows() * T::COMPONENTS);
        for j in 0..m.ncols() {
            comps.clear();
            for &v in m.col(j) {
                T::pack_into(v, &mut comps);
            }
            for &c in &comps {
                push_f64(&mut buf, c);
            }
        }
    }

    write_durable(&rank_file(root, state.iteration, rank), buf)
}

/// Mark `iteration`'s snapshot complete (call from rank 0 only, after a
/// cluster barrier guarantees every rank file has landed), then prune all
/// older snapshot directories beyond the newest `keep_last` complete ones.
pub fn finalize(root: &Path, iteration: usize, keep_last: usize) -> io::Result<()> {
    let marker = iter_dir(root, iteration).join(COMPLETE_MARKER);
    fs::write(marker, b"ok\n")?;
    // prune: keep the newest `keep_last` complete snapshots, drop the rest
    let mut complete = list_snapshots(root)?
        .into_iter()
        .filter(|&(_, done)| done)
        .map(|(it, _)| it)
        .collect::<Vec<_>>();
    complete.sort_unstable();
    let cutoff = complete
        .len()
        .checked_sub(keep_last.max(1))
        .map(|i| complete[i..].to_vec())
        .unwrap_or(complete);
    for (it, _) in list_snapshots(root)? {
        if !cutoff.contains(&it) && it < iteration {
            let _ = fs::remove_dir_all(iter_dir(root, it));
        }
    }
    Ok(())
}

fn list_snapshots(root: &Path) -> io::Result<Vec<(usize, bool)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(root) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(num) = name.strip_prefix("iter-") {
            if let Ok(it) = num.parse::<usize>() {
                let done = entry.path().join(COMPLETE_MARKER).exists();
                out.push((it, done));
            }
        }
    }
    Ok(out)
}

/// The newest iteration with a `COMPLETE` snapshot under `root`, if any.
pub fn latest_complete(root: &Path) -> Option<usize> {
    list_snapshots(root)
        .ok()?
        .into_iter()
        .filter(|&(_, done)| done)
        .map(|(it, _)| it)
        .max()
}

/// Load `iteration`'s snapshot, verifying version and checksums, and
/// assemble the full wavefunction block from every rank's shard. Works
/// regardless of the restarting run's rank count.
pub fn load<T: WireScalar>(root: &Path, iteration: usize) -> io::Result<LoadedCheckpoint<T>> {
    let first = read_durable(&rank_file(root, iteration, 0))?;
    let mut cur = Cur::new(&first);
    let header = parse_header::<T>(&mut cur, iteration)?;
    let state = parse_replicated(&mut cur, &header)?;
    let mut psi_full: Vec<Matrix<T>> = (0..header.nk)
        .map(|_| Matrix::<T>::zeros(header.ndofs, header.n_states))
        .collect();
    absorb_shard::<T>(&mut cur, &header, &mut psi_full)?;

    for rank in 1..header.nranks {
        let bytes = read_durable(&rank_file(root, iteration, rank))?;
        let mut cur = Cur::new(&bytes);
        let h = parse_header::<T>(&mut cur, iteration)?;
        if h.nranks != header.nranks
            || h.ndofs != header.ndofs
            || h.n_states != header.n_states
            || h.nk != header.nk
        {
            return Err(bad(format!("rank {rank} shard header mismatch")));
        }
        let s = parse_replicated(&mut cur, &h)?;
        if s.iteration != state.iteration {
            return Err(bad(format!("rank {rank} iteration mismatch")));
        }
        absorb_shard::<T>(&mut cur, &h, &mut psi_full)?;
    }

    Ok(LoadedCheckpoint {
        state,
        psi_full,
        nranks_at_write: header.nranks,
        grid_at_write: header.shape,
    })
}

struct Header {
    nranks: usize,
    iteration: usize,
    nnodes: usize,
    ndofs: usize,
    n_states: usize,
    nk: usize,
    /// Writing run's grid shape.
    shape: GridShape,
    /// Global k indices of this shard's psi blocks, in block order.
    ks: Vec<usize>,
}

fn parse_header<T: WireScalar>(cur: &mut Cur<'_>, iteration: usize) -> io::Result<Header> {
    if cur.take(8)? != MAGIC {
        return Err(bad("bad checkpoint magic"));
    }
    let version = cur.u32()?;
    if version != CHECKPOINT_VERSION {
        return Err(bad(format!(
            "unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )));
    }
    let _rank = cur.u32()?;
    let nranks = cur.u32()? as usize;
    let is_complex = cur.u8()? != 0;
    if is_complex != (T::COMPONENTS == 2) {
        return Err(bad("checkpoint scalar kind mismatch (real vs complex)"));
    }
    let it = cur.u64()? as usize;
    if it != iteration {
        return Err(bad(format!(
            "checkpoint iteration {it}, expected {iteration}"
        )));
    }
    let nnodes = cur.u64()? as usize;
    let ndofs = cur.u64()? as usize;
    let n_states = cur.u64()? as usize;
    let nk = cur.u64()? as usize;
    if nranks == 0 || nk == 0 {
        return Err(bad("degenerate checkpoint header"));
    }
    let n_dom = cur.u32()? as usize;
    let n_band = cur.u32()? as usize;
    let n_kgrp = cur.u32()? as usize;
    if n_dom == 0 || n_band == 0 || n_kgrp == 0 || n_dom * n_band * n_kgrp != nranks {
        return Err(bad("checkpoint grid shape does not tile its rank count"));
    }
    let nks = cur.u64()? as usize;
    if nks > nk {
        return Err(bad("shard covers more k-points than the run has"));
    }
    let mut ks = Vec::with_capacity(nks);
    for _ in 0..nks {
        let ik = cur.u64()? as usize;
        if ik >= nk {
            return Err(bad("shard k index out of range"));
        }
        ks.push(ik);
    }
    Ok(Header {
        nranks,
        iteration: it,
        nnodes,
        ndofs,
        n_states,
        nk,
        shape: GridShape::new(n_dom, n_band, n_kgrp),
        ks,
    })
}

fn parse_replicated(cur: &mut Cur<'_>, h: &Header) -> io::Result<ReplicatedScfState> {
    let rho_in = cur.f64s()?;
    if rho_in.len() != h.nnodes {
        return Err(bad("rho_in length mismatch"));
    }
    let mu = cur.f64()?;
    let m = cur.u64()? as usize;
    let mut mixer_history = Vec::with_capacity(m);
    for _ in 0..m {
        let rho = cur.f64s()?;
        let res = cur.f64s()?;
        if rho.len() != h.nnodes || res.len() != h.nnodes {
            return Err(bad("mixer history length mismatch"));
        }
        mixer_history.push((rho, res));
    }
    let nw = cur.u64()? as usize;
    let mut filter_windows = Vec::with_capacity(nw);
    for _ in 0..nw {
        let flag = cur.u8()?;
        let a0 = cur.f64()?;
        let a = cur.f64()?;
        filter_windows.push((flag != 0).then_some((a0, a)));
    }
    let residual_history = cur.f64s()?;
    Ok(ReplicatedScfState {
        iteration: h.iteration,
        rho_in,
        mu,
        mixer_history,
        filter_windows,
        residual_history,
    })
}

fn absorb_shard<T: WireScalar>(
    cur: &mut Cur<'_>,
    h: &Header,
    psi_full: &mut [Matrix<T>],
) -> io::Result<()> {
    let n_owned = cur.u64()? as usize;
    if n_owned > h.ndofs {
        return Err(bad("shard larger than DoF space"));
    }
    let mut owned = Vec::with_capacity(n_owned);
    for _ in 0..n_owned {
        let d = cur.u32()?;
        if d as usize >= h.ndofs {
            return Err(bad("owned DoF id out of range"));
        }
        owned.push(d);
    }
    let mut comps = vec![0.0f64; n_owned * T::COMPONENTS];
    for &ik in &h.ks {
        let full = &mut psi_full[ik];
        for j in 0..h.n_states {
            for c in comps.iter_mut() {
                *c = cur.f64()?;
            }
            let col = full.col_mut(j);
            for (l, &d) in owned.iter().enumerate() {
                col[d as usize] = T::unpack_at(&comps, l);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_linalg::matrix::Matrix;
    use dft_linalg::scalar::C64;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dft-ckpt-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn demo_state(iteration: usize, nnodes: usize) -> ReplicatedScfState {
        ReplicatedScfState {
            iteration,
            rho_in: (0..nnodes).map(|i| (i as f64 * 0.31).sin().abs()).collect(),
            mu: -0.123456789,
            mixer_history: vec![
                (vec![0.5; nnodes], vec![0.01; nnodes]),
                (
                    (0..nnodes).map(|i| i as f64 * 1e-3).collect(),
                    (0..nnodes).map(|i| (i as f64).cos() * 1e-4).collect(),
                ),
            ],
            filter_windows: vec![Some((-1.5, 0.25)), None],
            residual_history: vec![1e-2, 3e-3, 8e-4],
        }
    }

    /// Two ranks write shards; loading reassembles the exact full block and
    /// the exact replicated state, bit for bit.
    #[test]
    fn round_trip_reassembles_bits_exactly() {
        let root = tmp_root("roundtrip");
        let (ndofs, n_states, nnodes) = (10usize, 3usize, 7usize);
        let full: Vec<Matrix<f64>> = (0..2)
            .map(|k| {
                Matrix::from_fn(ndofs, n_states, |i, j| {
                    ((i * 7 + j * 3 + k * 11) as f64 * 0.17).sin()
                })
            })
            .collect();
        let owned0: Vec<u32> = (0..6).collect();
        let owned1: Vec<u32> = (6..10).collect();
        let state = demo_state(4, nnodes);
        for (rank, owned) in [(0usize, &owned0), (1, &owned1)] {
            let local: Vec<Matrix<f64>> = full
                .iter()
                .map(|m| Matrix::from_fn(owned.len(), n_states, |l, j| m.col(j)[owned[l] as usize]))
                .collect();
            write_rank(&root, rank, 2, ndofs, &state, owned, &local).unwrap();
        }
        finalize(&root, 4, 2).unwrap();
        assert_eq!(latest_complete(&root), Some(4));

        let loaded = load::<f64>(&root, 4).unwrap();
        assert_eq!(loaded.nranks_at_write, 2);
        assert_eq!(loaded.state, state);
        for (a, b) in loaded.psi_full.iter().zip(full.iter()) {
            for j in 0..n_states {
                for (x, y) in a.col(j).iter().zip(b.col(j)) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    /// Complex shards round-trip through the interleaved re/im encoding.
    #[test]
    fn complex_round_trip() {
        let root = tmp_root("complex");
        let (ndofs, n_states) = (5usize, 2usize);
        let full = Matrix::<C64>::from_fn(ndofs, n_states, |i, j| {
            C64::new((i as f64 + 0.5) * 0.3, (j as f64 - 0.5) * 0.7)
        });
        let owned: Vec<u32> = (0..5).collect();
        let mut state = demo_state(1, 3);
        state.filter_windows = vec![None];
        write_rank(
            &root,
            0,
            1,
            ndofs,
            &state,
            &owned,
            std::slice::from_ref(&full),
        )
        .unwrap();
        finalize(&root, 1, 2).unwrap();
        let loaded = load::<C64>(&root, 1).unwrap();
        for j in 0..n_states {
            assert_eq!(loaded.psi_full[0].col(j), full.col(j));
        }
        // loading with the wrong scalar kind is rejected
        assert!(load::<f64>(&root, 1).is_err());
    }

    /// A flipped byte fails the checksum; an absent COMPLETE marker makes
    /// the snapshot invisible to latest_complete.
    #[test]
    fn corruption_and_incomplete_snapshots_are_rejected() {
        let root = tmp_root("corrupt");
        let owned: Vec<u32> = (0..4).collect();
        let psi = Matrix::<f64>::from_fn(4, 2, |i, j| (i + 10 * j) as f64);
        let state = demo_state(2, 3);
        write_rank(&root, 0, 1, 4, &state, &owned, &[psi]).unwrap();
        // incomplete: not yet finalized
        assert_eq!(latest_complete(&root), None);
        finalize(&root, 2, 2).unwrap();
        assert_eq!(latest_complete(&root), Some(2));
        // corrupt one byte in the middle of the rank file
        let path = iter_dir(&root, 2).join("rank-0.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = load::<f64>(&root, 2).err().expect("corrupt load must fail");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    /// finalize prunes older snapshots down to `keep_last` complete ones.
    #[test]
    fn finalize_prunes_old_snapshots() {
        let root = tmp_root("prune");
        let owned: Vec<u32> = (0..2).collect();
        let psi = Matrix::<f64>::from_fn(2, 1, |i, _| i as f64);
        for it in [1usize, 3, 5, 7] {
            let state = demo_state(it, 2);
            write_rank(&root, 0, 1, 2, &state, &owned, std::slice::from_ref(&psi)).unwrap();
            finalize(&root, it, 2).unwrap();
        }
        assert_eq!(latest_complete(&root), Some(7));
        // the two newest survive, the older two are gone
        assert!(iter_dir(&root, 7).exists());
        assert!(iter_dir(&root, 5).exists());
        assert!(!iter_dir(&root, 3).exists());
        assert!(!iter_dir(&root, 1).exists());
        // both survivors still load
        assert!(load::<f64>(&root, 5).is_ok());
        assert!(load::<f64>(&root, 7).is_ok());
    }

    /// Two jobs snapshotting under one shared root via [`job_dir`] never
    /// prune each other: job A's `finalize` walks only A's own `iter-*`
    /// entries, so B's COMPLETE snapshots survive A's keep-last-2 pruning
    /// (and vice versa). Without the per-job namespace both jobs would write
    /// into the same directory and each `finalize` would delete the other's
    /// older snapshots.
    #[test]
    fn jobs_under_shared_root_do_not_prune_each_other() {
        let root = tmp_root("jobdir");
        let dir_a = job_dir(&root, 1);
        let dir_b = job_dir(&root, 2);
        assert_ne!(dir_a, dir_b);
        let owned: Vec<u32> = (0..2).collect();
        let psi = Matrix::<f64>::from_fn(2, 1, |i, _| i as f64);

        // job A writes many snapshots, pruning down to its last two
        for it in [1usize, 2, 3, 4] {
            let state = demo_state(it, 2);
            write_rank(&dir_a, 0, 1, 2, &state, &owned, std::slice::from_ref(&psi)).unwrap();
            finalize(&dir_a, it, 2).unwrap();
        }
        // job B, interleaved in time, has exactly one precious snapshot
        let state_b = demo_state(9, 2);
        write_rank(
            &dir_b,
            0,
            1,
            2,
            &state_b,
            &owned,
            std::slice::from_ref(&psi),
        )
        .unwrap();
        finalize(&dir_b, 9, 2).unwrap();
        // ... and A keeps churning afterwards
        for it in [5usize, 6] {
            let state = demo_state(it, 2);
            write_rank(&dir_a, 0, 1, 2, &state, &owned, std::slice::from_ref(&psi)).unwrap();
            finalize(&dir_a, it, 2).unwrap();
        }

        // A pruned its own history as usual ...
        assert_eq!(latest_complete(&dir_a), Some(6));
        assert!(!iter_dir(&dir_a, 4).exists());
        // ... but B's snapshot is untouched and still loads bit-exactly
        assert_eq!(latest_complete(&dir_b), Some(9));
        let loaded = load::<f64>(&dir_b, 9).unwrap();
        assert_eq!(loaded.state, state_b);
    }
}
