//! Writes `docs/REPRODUCTION.md`: the paper's Table 2, the §5.5 batching
//! sweep, Figure 4 and the §5.5 device-vs-server claims, reproduced on the
//! fleet simulator. The output is byte-deterministic.
//!
//! Usage: `paper [output]` (default: `docs/REPRODUCTION.md` of this
//! repository; `-` prints to stdout).

fn main() {
    let report = pando_bench::reproduction_report();
    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/REPRODUCTION.md");
    match std::env::args().nth(1).as_deref().unwrap_or(default) {
        "-" => print!("{report}"),
        path => {
            std::fs::write(path, report).unwrap_or_else(|err| panic!("writing {path}: {err}"));
            println!("wrote {path}");
        }
    }
}
