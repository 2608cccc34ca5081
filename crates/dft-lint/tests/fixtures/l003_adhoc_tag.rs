// dftlint:fixture(crate="dft-hpc", file="comm.rs")
// L003: a tag constant minted outside the TagBand registry must be
// flagged even when a valid registry exists alongside it.

pub const MAX_RANKS: u64 = 4000;
pub const COLLECTIVE_TAGS: (u64, u64) = (1 << 60, u64::MAX);

pub const BARRIER_BAND: TagBand = TagBand {
    name: "barrier",
    base: (1 << 60) + 1,
    width: 1,
};

pub const TAG_BANDS: [TagBand; 1] = [BARRIER_BAND];

fn sneaky_exchange() -> u64 {
    const ROGUE_TAG: u64 = (1 << 60) + 42;
    ROGUE_TAG
}
