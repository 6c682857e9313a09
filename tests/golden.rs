//! Golden portfolio outputs: six small suite machines must reproduce the
//! fingerprints recorded in `tests/golden/portfolio_fingerprints.txt`.
//! lion9 and modulo12 run io searches that hit their `max_work` cap, where
//! a change to the embedding search shows first. CI's bench-smoke job
//! re-sweeps every corpus of that file in release mode.

use nova_engine::{run_portfolio, EngineConfig, StreamWriter};

const GOLDEN: &str = include_str!("golden/portfolio_fingerprints.txt");

const MACHINES: [&str; 6] = ["bbtas", "dk27", "lion", "lion9", "modulo12", "shiftreg"];

/// The recorded fingerprint of suite machine `name`.
fn golden(name: &str) -> &'static str {
    GOLDEN
        .lines()
        .find_map(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                ["suite", machine, fp] if machine == name => Some(fp),
                _ => None,
            },
        )
        .unwrap_or_else(|| panic!("{name} has no golden fingerprint"))
}

/// The `fingerprint` field of a rendered `--stream` machine line.
fn fingerprint(line: &str) -> &str {
    let tail = line
        .split_once("\"fingerprint\":\"")
        .expect("stream line carries a fingerprint")
        .1;
    &tail[..tail.find('"').expect("closing quote")]
}

#[test]
fn small_suite_machines_keep_their_golden_fingerprints() {
    for name in MACHINES {
        let m = fsm::benchmarks::by_name(name)
            .unwrap_or_else(|| panic!("embedded benchmark {name}"))
            .fsm;
        let report = run_portfolio(&m, name, &EngineConfig::default());
        let line = StreamWriter::<std::io::Sink>::render_line(&report, false);
        assert_eq!(
            fingerprint(&line),
            golden(name),
            "{name}: the portfolio's outputs changed"
        );
    }
}
