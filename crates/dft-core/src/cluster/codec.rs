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

/// FNV-1a 64-bit over a byte stream — deterministic, dependency-free,
/// stable across runs. The file checksum here and `dft-serve`'s cache keys.
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.0
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
/// checksum, write a temp file beside `path`, `sync_all` it, rename it over
/// `path` and `sync_all` the directory, so a torn write is never visible
/// and a file written later (a snapshot's `COMPLETE` marker) cannot
/// outlive this one's rename in a crash. Returns the bytes written.
pub fn write_durable(path: &Path, mut body: Vec<u8>) -> io::Result<u64> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let dir = dir.unwrap_or(Path::new("."));
    fs::create_dir_all(dir)?;
    let sum = fnv1a(&body);
    push_u64(&mut body, sum);
    let tmp = path.with_extension("tmp");
    let sync = |f: fs::File| f.sync_all();
    let mut f = fs::File::create(&tmp)?;
    f.write_all(&body)?;
    sync(f)?;
    fs::rename(&tmp, path)?;
    sync(fs::File::open(dir)?)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The published FNV-1a-64 vectors: the offset basis for no input, and
    /// `b"a"`; a streamed write equals the one-shot hash.
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"fo");
        h.write(b"obar");
        assert_eq!(h.0, fnv1a(b"foobar"));
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
