//! End-to-end metrics of one workload, with the system allocator and no
//! tracing. `mvml-benchmark compare <set-dir>...` compares interleaved sets.

fn main() -> std::process::ExitCode {
    mvml_benchmark::main_with(false)
}
