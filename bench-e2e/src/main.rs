//! `bench-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exit code 0 only when every correctness check passed; 1 when one failed
//! (the result line then says `"correct": false`); 2 for a bad command line.

use bench_e2e::{alloc::Counting, args, run, Host};
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() -> ExitCode {
    let host = Host::detect();
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench-e2e: {e}");
            eprintln!(
                "usage: bench-e2e --workload <s1-balb|city128|serve-steady|serve-chaos> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if run(&args, &host) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
