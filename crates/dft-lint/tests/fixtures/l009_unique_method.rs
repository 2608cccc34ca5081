// dftlint:fixture(crate="dft-serve", file="ticket.rs")
// L009: a `.m(` call of a name that no other type, trait or std type
// defines reaches that method whatever the receiver, here one whose type
// this file never names.

pub struct Ticket {
    done: bool,
}

impl Ticket {
    pub fn outcome_ready(&self) -> bool {
        self.done
    }
}

fn drive() -> bool {
    submit_one().outcome_ready()
}
