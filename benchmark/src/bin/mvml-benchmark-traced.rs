//! Per-layer metrics of one workload: spans around each layer's public
//! calls, a profile per op kind, and allocation counts.

#[global_allocator]
static GLOBAL: mvml_benchmark::alloc::CountingAlloc = mvml_benchmark::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    mvml_benchmark::main_with(true)
}
