// dftlint:fixture(crate="dft-serve", file="pool.rs")
// L009: `record.total()` calls `Record::total`, whose type this file names.
// It does not reach `Pool::total`, another type's method of the same name,
// so that one is flagged.

pub struct Pool {
    slots: usize,
}

impl Pool {
    pub fn total(&self) -> usize {
        self.slots
    }
}

pub struct Record {
    a: f64,
    b: f64,
}

impl Record {
    pub fn total(&self) -> f64 {
        self.a + self.b
    }
}

fn report(record: &Record) -> f64 {
    record.total()
}
