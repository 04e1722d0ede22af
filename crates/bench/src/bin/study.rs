//! Regenerates one study of the paper reproduction: a figure, an in-text
//! reading, an ablation or a free-form sweep from the table in
//! `wormsim_bench::study`.
//!
//! ```text
//! study --list
//! study <id> [axis flags the study takes] [harness flags]
//! ```
//!
//! Every study takes the harness flags (`SweepOptions::USAGE`): its points
//! run on `--threads N` workers or `--backend remote` workers, are
//! journaled to `DIR/<id>.journal.jsonl`, and continue after a crash or
//! Ctrl-C with `--resume <journal>`. `sweep` and `faults_sweep` also take
//! axis flags (`--algos`, `--loads`, `--traffic`, `--switching`,
//! `--max-faults`; `--list` shows which); any other study rejects them.
//! Exit status: 0 whole, 1 error, 2 usage, 4 quarantined points,
//! 130 interrupted.
//!
//! Examples:
//!
//! ```text
//! study fig3 --quick
//! study headline --backend remote --worker 127.0.0.1:4021
//! study ablation_vcs --topo torus:8x8 --threads 4
//! study sweep --topo mesh:16x16 --algos ecube,2pn --loads 0.1:0.6:0.1 --quick
//! study sweep --traffic hotspot:8,8@0.1 --algos extended --switching vct
//! study faults_sweep --algos ecube,phop --loads 0.3 --max-faults 4
//! ```

use wormsim_bench::cli;
use wormsim_bench::study::{self, Command, STUDIES};

fn main() {
    match study::parse(std::env::args().skip(1)) {
        Ok(Command::Help) => println!("{}", study::usage()),
        Ok(Command::List) => {
            for study in STUDIES {
                let flags: Vec<String> = study
                    .axes
                    .iter()
                    .map(|a| format!(" [{}]", a.flag()))
                    .collect();
                println!("{:<22}{}{}", study.id, study.about, flags.concat());
            }
        }
        Ok(Command::Run(invocation)) => invocation.run(),
        Err(message) => cli::usage_error(&message, &study::usage()),
    }
}
