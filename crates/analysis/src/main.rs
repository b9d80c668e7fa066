//! CLI for the workspace lint engine: `check [--root <path>]` prints the
//! report and exits 1 on any finding or malformed directive (2 on a usage
//! or I/O error).

use melissa_analysis::engine::analyze;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: melissa_analysis check [--root <path>]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("check") {
        return usage_error("missing command");
    }
    // Default root: the workspace this binary was built from (robust under
    // `cargo run` from any directory).
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--root", Some(path)) => root = PathBuf::from(path),
            ("--root", None) => return usage_error("--root needs a path"),
            (other, _) => return usage_error(&format!("unexpected argument `{other}`")),
        }
    }
    match analyze(&root) {
        Ok(analysis) => {
            print!("{}", analysis.report());
            if analysis.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}
