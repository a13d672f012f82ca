fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    flexrpc_benchmark::cli::main(&args)
}
