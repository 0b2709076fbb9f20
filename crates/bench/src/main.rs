//! `inc-bench`: every figure, study and scheduling scenario behind one
//! binary. `inc-bench list` names them.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    inc_bench::cli::run(&args)
}
