// dftlint:fixture(crate="dft-core", file="preempt.rs")
// L009: `buf.clear()` on a `Vec` is not a call of `Token::clear`. A method
// whose name a std type also has is reached by a `.clear(` call only in a
// file that names `Token` or its crate, and this file does neither, so the
// method is flagged.

pub struct Token(bool);

impl Token {
    pub fn clear(&mut self) {
        self.0 = false;
    }
}

fn drain(buf: &mut Vec<f64>) -> usize {
    let n = buf.len();
    buf.clear();
    n
}
