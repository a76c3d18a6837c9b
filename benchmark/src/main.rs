//! The untraced binary: end-to-end metrics on the system allocator.

fn main() -> std::process::ExitCode {
    cpr_benchmark::cli::main()
}
