fn main() -> std::process::ExitCode {
    ringbench::cli::main()
}
