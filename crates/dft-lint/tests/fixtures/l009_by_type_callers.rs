// dftlint:fixture(crate="dft-fem", file="mesh.rs")
// L009: a method is reached through its type: a path `T::m` or
// `T::<U>::m`, `Self::m` inside its `impl`, and a `.m(` call in a file that
// names `T`, even when a std type has a method of that name (`len`). Every
// `pub fn` here is reached.

pub struct Grid {
    n: usize,
}

impl Grid {
    pub fn new(n: usize) -> Self {
        Self { n: Self::clamp(n) }
    }

    pub fn clamp(n: usize) -> usize {
        n.max(2)
    }

    pub fn len(&self) -> usize {
        self.n
    }
}

pub struct Table<T> {
    rows: Vec<T>,
}

impl<T> Table<T> {
    pub fn empty() -> Self {
        Self { rows: Vec::new() }
    }
}

fn build() -> usize {
    let t = Table::<f64>::empty();
    t.rows.len() + cells(&Grid::new(4))
}

fn cells(g: &Grid) -> usize {
    g.len() * g.len()
}
