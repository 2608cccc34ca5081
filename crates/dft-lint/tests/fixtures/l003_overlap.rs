// dftlint:fixture(crate="dft-hpc", file="comm.rs")
// L003: the prover must reject this registry — `rogue` sits inside
// `allreduce`'s wire interval.

pub const MAX_RANKS: u64 = 4000;
pub const COLLECTIVE_TAGS: (u64, u64) = (1 << 60, u64::MAX);

pub const ALLREDUCE_BAND: TagBand = TagBand {
    name: "allreduce",
    base: (1 << 60) + 1000,
    width: MAX_RANKS,
};

pub const ROGUE_BAND: TagBand = TagBand {
    name: "rogue",
    base: (1 << 60) + 2000,
    width: 1,
};

pub const TAG_BANDS: [TagBand; 2] = [ALLREDUCE_BAND, ROGUE_BAND];
