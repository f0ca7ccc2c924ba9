//! `hack-benchmark`: see `README.md` and `run.sh` beside this package.

fn main() -> std::process::ExitCode {
    hack_benchmark::cli::main()
}
