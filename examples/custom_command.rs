//! The paper's headline extension claim: KumQuat "immediately work[s]
//! with new commands (or new combinations of command flags) that require
//! new combiners without the need to manually develop new combiners" (§5).
//!
//! This example defines a brand-new stream command nobody has written a
//! combiner for — a CSV "running total" annotator — wraps it as a black
//! box, and lets the synthesizer discover how to parallelize it.
//!
//! ```sh
//! cargo run --release --example custom_command
//! ```

use kumquat::coreutils::{Bytes, CmdError, Command, ExecContext, UnixCommand};
use kumquat::dsl::eval::CommandEnv;
use kumquat::synth::{synthesize, SynthesisConfig};

/// `csvtotal` — a made-up domain command: each input line is `label,value`;
/// the output annotates each line with the running total of `value`.
///
/// The command is implemented as an ordinary sequential stream function —
/// no thought given to parallelism. Its divide-and-conquer structure
/// (later totals are earlier totals shifted by the boundary sum) is
/// exactly what the DSL's `offset` operator captures.
struct CsvTotal;

impl UnixCommand for CsvTotal {
    fn display(&self) -> String {
        "csvtotal".to_owned()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        // `input` is a refcounted slice of the pipeline's shared buffer;
        // viewing it as text borrows in place.
        let input = input
            .to_str()
            .map_err(|_| CmdError::new("csvtotal", "input is not valid UTF-8"))?;
        let mut total: i64 = 0;
        let mut out = String::with_capacity(input.len());
        for line in input.lines() {
            let value: i64 = line
                .rsplit(',')
                .next()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            total += value;
            out.push_str(&format!("{total},{line}\n"));
        }
        Ok(Bytes::from(out))
    }
}

fn main() {
    // Wrap the new command as a black box.
    let command = Command::custom(vec!["csvtotal".into()], Box::new(CsvTotal));
    let ctx = ExecContext::default();

    // Synthesize: KumQuat probes the command with generated inputs and
    // searches its combiner DSL.
    let report = synthesize(&command, &ctx, &SynthesisConfig::default());
    println!("command:      {}", report.command);
    println!(
        "search space: {} candidates, {} observations, {:.0?}",
        report.space.total(),
        report.observations,
        report.elapsed
    );
    match report.combiner() {
        Some(c) => {
            println!("combiner:     {}", c.primary());
            for p in &c.plausible {
                println!("  plausible:  {p}");
            }

            // Use it: split a fresh input, run the command per piece in
            // parallel fashion, combine, and verify against serial.
            let input: Bytes = (0..12)
                .map(|i| format!("item{},{}\n", i, (i * 7) % 20))
                .collect::<String>()
                .into();
            let serial = command.run(input.clone(), &ctx).unwrap();
            // Splitting is zero-copy: each piece is a refcounted slice.
            let pieces: Vec<Bytes> = input
                .split_stream(4)
                .into_iter()
                .map(|p| command.run(p, &ctx).unwrap())
                .collect();
            let env = CommandEnv {
                command: &command,
                ctx: &ctx,
            };
            let combined = c.combine_all(&pieces, &env).unwrap();
            assert_eq!(combined, serial, "combiner must reproduce serial output");
            println!("\n4-way parallel output verified against serial:");
            for line in combined.to_str().unwrap().lines().take(6) {
                println!("  {line}");
            }
        }
        None => println!("combiner:     NONE — not divide-and-conquer expressible"),
    }
}
