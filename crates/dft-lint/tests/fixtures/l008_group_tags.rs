// dftlint:fixture(crate="dft-hpc", file="comm.rs")
//! L008: collectives must derive their tags from one registered band.

pub const MAX_RANKS: u64 = 4000;
pub const COLLECTIVE_TAGS: (u64, u64) = (1 << 60, u64::MAX);

pub const GROUP_REDUCE_BAND: TagBand = TagBand {
    name: "group-reduce",
    base: (1 << 60) + 11000,
    width: MAX_RANKS,
};

pub const KGROUP_BAND: TagBand = TagBand {
    name: "kgroup",
    base: (1 << 60) + 21000,
    width: MAX_RANKS,
};

impl ThreadComm {
    /// Violation: a raw arithmetic tag in a group context escapes the
    /// registered band the L003 prover reasons about.
    pub fn group_bad_raw_tag(&mut self, members: &[usize]) -> Result<(), CommError> {
        let root = members[0];
        self.send_f64(root, 1152921504606846976 + self.rank as u64, &[0.0], WirePrecision::Fp64)?;
        Ok(())
    }

    /// Violation: mixing two bands inside one group collective breaks the
    /// one-context-one-band discipline.
    pub fn group_mixed_bands(&mut self, members: &[usize]) -> Result<(), CommError> {
        let root = members[0];
        self.send_f64(root, GROUP_REDUCE_BAND.for_rank(self.rank), &[0.0], WirePrecision::Fp64)?;
        let deadline = Instant::now() + self.timeout;
        let _v = self.recv_f64_deadline(root, KGROUP_BAND.for_rank(root), WirePrecision::Fp64, deadline)?;
        Ok(())
    }

    /// Clean: one band, `.for_rank(..)` / `.tag()` derivations only, also
    /// through a local binding.
    pub fn group_clean(&mut self, members: &[usize]) -> Result<(), CommError> {
        let root = members[0];
        let reply = GROUP_REDUCE_BAND.for_rank(root);
        self.send_f64(root, GROUP_REDUCE_BAND.for_rank(self.rank), &[0.0], WirePrecision::Fp64)?;
        let deadline = Instant::now() + self.timeout;
        let _v = self.recv_f64_deadline(root, reply, WirePrecision::Fp64, deadline)?;
        Ok(())
    }

    /// Violation: a world collective hands the rooted routine a tag minted
    /// outside the registry.
    pub fn allreduce_bad_tag(&mut self, data: &mut [f64]) -> Result<(), CommError> {
        let tag = |r: usize| 77 + r as u64;
        self.rooted(&self.world(), tag, data, WirePrecision::Fp64, None)?;
        Ok(())
    }

    /// Clean: the tag-per-sender closure derives from one band.
    pub fn allreduce_clean(&mut self, data: &mut [f64]) -> Result<(), CommError> {
        let tag = |r| KGROUP_BAND.for_rank(r);
        self.rooted(&self.world(), tag, data, WirePrecision::Fp64, None)?;
        Ok(())
    }
}
