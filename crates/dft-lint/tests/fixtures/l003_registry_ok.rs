// dftlint:fixture(crate="dft-hpc", file="comm.rs")
// L003: high tag literals inside the registry items (the band consts,
// TAG_BANDS, MAX_RANKS, COLLECTIVE_TAGS) and tags derived from a band
// elsewhere. Must produce no diagnostics.

pub const MAX_RANKS: u64 = 4000;
pub const COLLECTIVE_TAGS: (u64, u64) = (1 << 60, u64::MAX);

pub const BARRIER_BAND: TagBand = TagBand {
    name: "barrier",
    base: (1 << 60) + 1,
    width: 1,
};

pub const ALLREDUCE_BAND: TagBand = TagBand {
    name: "allreduce",
    base: (1 << 60) + 1000,
    width: MAX_RANKS,
};

pub const KGROUP_BAND: TagBand = TagBand {
    name: "kgroup",
    base: (1 << 60) + 21000,
    width: MAX_RANKS,
};

pub const TAG_BANDS: [TagBand; 3] = [BARRIER_BAND, ALLREDUCE_BAND, KGROUP_BAND];

fn barrier_tag() -> u64 {
    BARRIER_BAND.for_rank(0)
}
