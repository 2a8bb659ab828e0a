//! `figures <name> [flags]` runs one experiment of
//! [`vcdn_bench::figures::FIGURES`]; `figures --list` prints the names,
//! one per line. `figures <name> > results/<name>.txt` is the whole
//! regeneration recipe.

use vcdn_bench::figures::FIGURES;
use vcdn_bench::Args;

fn main() {
    let cli = Args::new("figures", []);
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        cli.fail("usage: figures <name> [flags] | figures --list");
    };
    if name == "--list" {
        Args::new("figures --list", argv).finish();
        for (name, _) in FIGURES {
            println!("{name}");
        }
    } else if let Some((_, run)) = FIGURES.iter().find(|(n, _)| *n == name) {
        run(&Args::new(&name, argv));
    } else {
        cli.fail(&format!("no figure named {name:?} (see figures --list)"));
    }
}
