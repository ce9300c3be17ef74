//! Thin binary shim over [`kq_cli`].

use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match kq_cli::run_cli(&args) {
        Ok(output) => {
            for note in &output.notes {
                eprintln!("kumquat: {note}");
            }
            let mut stdout = std::io::stdout().lock();
            // One write per segment, each dropped once written: a mapped
            // spill file is unmapped again as soon as it is out.
            for segment in output.stdout.into_segments() {
                if stdout.write_all(segment.as_bytes()).is_err() {
                    // Broken pipe (e.g. `kumquat corpus | head`) is not an
                    // error.
                    std::process::exit(0);
                }
            }
            // Findings exit (`check --deny-warnings`): 1, distinct from
            // the argument/IO error exit 2 below.
            if output.exit_code != 0 {
                std::process::exit(output.exit_code);
            }
        }
        Err(message) => {
            eprintln!("kumquat: {message}");
            std::process::exit(2);
        }
    }
}
