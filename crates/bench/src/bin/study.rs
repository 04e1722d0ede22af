//! Regenerates one study of the paper reproduction: a figure, an in-text
//! reading or an ablation from the table in `wormsim_bench::study`.
//!
//! ```text
//! study --list
//! study <id> [harness flags]
//! ```
//!
//! Every study takes the harness flags (`SweepOptions::USAGE`): its points
//! run on `--threads N` workers or `--backend remote` workers, are
//! journaled to `DIR/<id>.journal.jsonl`, and continue after a crash or
//! Ctrl-C with `--resume <journal>`. Exit status: 0 whole, 1 error,
//! 2 usage, 4 quarantined points, 130 interrupted.
//!
//! Examples:
//!
//! ```text
//! study fig3 --quick
//! study headline --backend remote --worker 127.0.0.1:4021
//! study ablation_vcs --topo torus:8x8 --threads 4
//! ```

use wormsim_bench::study::{self, STUDIES};
use wormsim_bench::{cli, SweepOptions};

fn usage() -> String {
    format!("usage: study --list | study <id> {}", SweepOptions::USAGE)
}

fn usage_error(message: &str) -> ! {
    cli::usage_error(message, &usage())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let id = args.next().unwrap_or_else(|| usage_error("no study named"));
    match id.as_str() {
        "--help" | "-h" => println!("{}", usage()),
        "--list" => {
            for study in STUDIES {
                println!("{:<22}{}", study.id, study.about);
            }
        }
        id => {
            let study = study::find(id)
                .unwrap_or_else(|| usage_error(&format!("unknown study '{id}' (see --list)")));
            let options = SweepOptions::parse(args)
                .and_then(|options| study.check(&options).map(|()| options))
                .unwrap_or_else(|message| usage_error(&message));
            study.run(&options);
        }
    }
}
