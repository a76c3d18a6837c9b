//! The traced binary: the same program with the counting allocator
//! installed, so `--trace 1` can report allocations per call.

use cpr_benchmark::alloc::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    cpr_benchmark::cli::main()
}
