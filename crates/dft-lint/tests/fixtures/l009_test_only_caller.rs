// dftlint:fixture(crate="dft-core", file="mixing.rs")
// L009: a caller inside `#[cfg(test)]` or `#[test]` code does not count,
// and neither does an import or re-export.

pub mod api {
    pub use super::test_support;
}

pub struct Mixer {
    history: Vec<f64>,
}

impl Mixer {
    pub fn new() -> Self {
        Self { history: Vec::new() }
    }

    pub fn reset(&mut self) {
        self.history.clear();
    }
}

pub fn test_support() -> u32 {
    7
}

pub fn production() -> Mixer {
    Mixer::new()
}

fn driver() -> usize {
    production().history.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears() {
        let mut m = production();
        m.reset();
        assert_eq!(test_support(), 7);
    }
}
