//! The little-endian, FNV-1a-checksummed binary conventions shared by the
//! solver's on-disk formats (`DFTCKPT1` SCF snapshots in
//! [`checkpoint`](super::checkpoint), `DFTRELX2` trajectory state in
//! `dft-parallel`'s relaxation loop): every `f64` travels as its own bit pattern,
//! and a file ends in the checksum of everything before it. Both formats
//! reach the disk through the one durable writer [`write_durable`] and come
//! back through [`read_durable`].

use std::fs;
use std::io::{self, Write};
use std::path::Path;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn push_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn push_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    push_u64(buf, vs.len() as u64);
    for &v in vs {
        push_f64(buf, v);
    }
}

/// An [`io::ErrorKind::InvalidData`] error: a file that does not parse.
pub fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Write `body` to `path` durably: create its directory, append the
/// checksum, write a temp file beside `path`, `sync_all` it and rename it
/// over `path`, so a torn write is never visible. Returns the bytes
/// written.
pub fn write_durable(path: &Path, mut body: Vec<u8>) -> io::Result<u64> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let sum = fnv1a(&body);
    push_u64(&mut body, sum);
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp)?;
    f.write_all(&body)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    Ok(body.len() as u64)
}

/// Read a file written by [`write_durable`] and verify its checksum;
/// returns the checksummed body.
pub fn read_durable(path: &Path) -> io::Result<Vec<u8>> {
    let mut bytes = fs::read(path)?;
    let sum = bytes.split_off(bytes.len().saturating_sub(8));
    if sum[..] != fnv1a(&bytes).to_le_bytes() {
        return Err(bad(format!("checksum mismatch in {}", path.display())));
    }
    Ok(bytes)
}

/// Byte-cursor reader with explicit bounds errors.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let Some(s) = self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) else {
            return Err(bad("file truncated"));
        };
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f64(&mut self) -> io::Result<f64> {
        self.array().map(f64::from_le_bytes)
    }

    pub fn f64s(&mut self) -> io::Result<Vec<f64>> {
        let n = self.u64()? as usize;
        if n > self.buf.len() / 8 + 1 {
            return Err(bad("length field out of range"));
        }
        (0..n).map(|_| self.f64()).collect()
    }
}
