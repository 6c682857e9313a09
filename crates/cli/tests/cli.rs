//! End-to-end tests of the command-line tools (spawned as real processes).

use nova_trace::json;
use std::io::Write as _;
use std::process::{Command, Stdio};

const TOY_KISS: &str = "\
.i 1
.o 1
.s 2
0 a a 0
1 a b 0
- b a 1
";

const TOY_PLA: &str = "\
.i 2
.o 1
11 1
10 1
01 1
.e
";

/// Like [`run_with_stdin`] but also returns the raw exit code (`-1` when
/// killed by a signal), for the per-failure-class exit-code contract.
fn run_with_code(bin: &str, args: &[&str], stdin: &str) -> (String, String, i32) {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // A child rejecting its arguments may exit without reading stdin; the
    // resulting broken pipe is part of the failure mode, not a test error.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

fn run_with_stdin(bin: &str, args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(stdin.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn nova_encodes_from_stdin() {
    let (stdout, _, ok) = run_with_stdin(env!("CARGO_BIN_EXE_nova"), &[], TOY_KISS);
    assert!(ok);
    assert!(stdout.contains("algorithm ihybrid"));
    assert!(stdout.contains(".code a"));
    assert!(stdout.contains(".code b"));
}

#[test]
fn nova_prints_pla_with_p() {
    let (stdout, _, ok) = run_with_stdin(env!("CARGO_BIN_EXE_nova"), &["-p"], TOY_KISS);
    assert!(ok);
    assert!(stdout.contains(".i 2"));
    assert!(stdout.contains(".e"));
}

#[test]
fn nova_stats_mode() {
    let (stdout, _, ok) = run_with_stdin(env!("CARGO_BIN_EXE_nova"), &["-s"], TOY_KISS);
    assert!(ok);
    assert!(stdout.contains("minimized symbolic cover"));
}

#[test]
fn nova_all_algorithms_run() {
    for alg in nova_core::Algorithm::ALL {
        let name = alg.name();
        let (stdout, stderr, ok) =
            run_with_stdin(env!("CARGO_BIN_EXE_nova"), &["-e", name], TOY_KISS);
        assert!(ok, "{name}: {stderr}");
        assert!(stdout.contains(&format!("algorithm {name}")), "{name}");
    }
    // The legacy `onehot` spelling keeps working through FromStr.
    let (_, stderr, ok) = run_with_stdin(env!("CARGO_BIN_EXE_nova"), &["-e", "onehot"], TOY_KISS);
    assert!(ok, "onehot: {stderr}");
}

#[test]
fn nova_portfolio_reports_best() {
    let (stdout, stderr, ok) =
        run_with_stdin(env!("CARGO_BIN_EXE_nova"), &["--portfolio"], TOY_KISS);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("# portfolio on"), "{stdout}");
    assert!(stdout.contains("# best:"), "{stdout}");
    assert!(stdout.contains(".code a"), "{stdout}");
}

#[test]
fn nova_portfolio_zero_timeout_fails_cleanly() {
    let (stdout, _, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["--portfolio", "--timeout-ms", "0"],
        TOY_KISS,
    );
    assert!(!ok, "zero deadline cannot produce a winner");
    assert!(stdout.contains("timeout"), "{stdout}");
    assert!(stdout.contains("# best: none"), "{stdout}");
}

#[test]
fn nova_json_single_run() {
    let (stdout, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["-e", "ihybrid", "--json"],
        TOY_KISS,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"algorithm\": \"ihybrid\""), "{stdout}");
    assert!(stdout.contains("\"outcome\": \"done\""), "{stdout}");
    assert!(stdout.contains("\"stages_ms\""), "{stdout}");
    assert!(stdout.contains("\"counters\""), "{stdout}");
}

#[test]
fn nova_portfolio_json() {
    let (stdout, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["--portfolio", "--json", "--jobs", "2"],
        TOY_KISS,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"machine\": \"stdin\""), "{stdout}");
    assert!(stdout.contains("\"best\""), "{stdout}");
    assert!(stdout.contains("\"runs\""), "{stdout}");
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nova-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn nova_counters_in_text_mode() {
    let (stdout, stderr, ok) = run_with_stdin(env!("CARGO_BIN_EXE_nova"), &[], TOY_KISS);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("# counters: work"), "{stdout}");
    assert!(stdout.contains("espresso-iters"), "{stdout}");
}

#[test]
fn nova_trace_chrome_is_valid_and_balanced() {
    let path = temp_path("chrome.json");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["--portfolio", "--trace", path_s],
        TOY_KISS,
    );
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let doc = json::parse(&text).expect("chrome trace parses");
    let Some(json::Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents: {text}");
    };
    let count = |ph: &str| {
        events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(json::Json::Str(s)) if s == ph))
            .count()
    };
    assert!(count("B") > 0);
    assert_eq!(count("B"), count("E"));
    // One span per algorithm.
    for alg in nova_core::Algorithm::ALL {
        let name = format!("algo.{}", alg.name());
        assert!(
            events
                .iter()
                .any(|e| matches!(e.get("name"), Some(json::Json::Str(s)) if *s == name)),
            "missing {name}"
        );
    }
}

#[test]
fn nova_trace_jsonl_has_schema_header() {
    let path = temp_path("trace.jsonl");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["--trace", path_s, "--trace-format", "jsonl"],
        TOY_KISS,
    );
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let first = text.lines().next().expect("non-empty");
    assert!(first.contains("\"schema\":\"nova-trace/1\""), "{first}");
    for line in text.lines() {
        json::parse(line).expect("every jsonl line parses");
    }
}

#[test]
fn nova_bench_flag_loads_embedded_machine() {
    let (stdout, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["--bench", "lion", "--json"],
        "",
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"machine\": \"lion\""), "{stdout}");
    let (_, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["--bench", "no-such-machine"],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("unknown embedded benchmark"), "{stderr}");
}

#[test]
fn nova_bench_filter_writes_bench_report() {
    let path = temp_path("bench.json");
    let path_s = path.to_str().unwrap();
    let trace = temp_path("bench-trace.jsonl");
    let trace_s = trace.to_str().unwrap();
    // A filtered sweep over small machines with a tight budget keeps the
    // test fast; the report shape is what's under test, not the areas.
    let (_, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &[
            "bench",
            "--filter",
            "shiftreg,lion",
            "--budget",
            "2000",
            "--bench-out",
            path_s,
            "--trace",
            trace_s,
            "--trace-format",
            "jsonl",
        ],
        "",
    );
    assert!(ok, "{stderr}");
    assert!(stderr.contains("swept 2 machines in"), "{stderr}");
    let text = std::fs::read_to_string(&path).expect("bench report written");
    std::fs::remove_file(&path).ok();
    let doc = json::parse(&text).expect("bench report parses");
    assert_eq!(doc.get("schema"), Some(&json::Json::str("nova-bench/1")));
    let Some(json::Json::Arr(machines)) = doc.get("machines") else {
        panic!("machines missing");
    };
    assert_eq!(machines.len(), 2, "--filter restricts the sweep");
    // The sweep's trace covers every machine's portfolio.
    let text = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).ok();
    let first = text.lines().next().expect("non-empty trace");
    assert!(first.contains("\"schema\":\"nova-trace/1\""), "{first}");
    let portfolios = text
        .lines()
        .map(|l| json::parse(l).expect("every jsonl line parses"))
        .filter(|e| {
            e.get("ev") == Some(&json::Json::str("B"))
                && e.get("name") == Some(&json::Json::str("portfolio"))
        })
        .count();
    assert_eq!(portfolios, 2, "one portfolio span per machine");
    // An unknown name in --filter is an error, not a silent empty sweep.
    let (_, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["bench", "--filter", "nope"],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("unknown embedded benchmark"), "{stderr}");
}

#[test]
fn nova_rejects_bad_input() {
    let (_, stderr, ok) = run_with_stdin(env!("CARGO_BIN_EXE_nova"), &[], "not kiss at all");
    assert!(!ok);
    assert!(stderr.contains("nova:"));
}

#[test]
fn nova_state_minimize_flag() {
    let kiss = "\
.i 1
.o 1
.s 3
0 a b 0
1 a c 0
0 b a 1
1 b b 0
0 c a 1
1 c c 0
";
    let (stdout, stderr, ok) = run_with_stdin(env!("CARGO_BIN_EXE_nova"), &["-m"], kiss);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("removed 1 states"), "{stderr}");
    assert!(stdout.contains("2 states"));
}

/// Every user-triggered failure maps to one line on stderr and a class-
/// specific exit code: 1 no result, 2 usage, 3 parse, 4 I/O, 5 unknown
/// benchmark. A multi-line or panicking failure is a bug.
fn assert_one_line_stderr(stderr: &str) {
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "expected exactly one stderr line, got: {stderr:?}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn nova_exit_code_parse_error() {
    let (_, stderr, code) = run_with_code(env!("CARGO_BIN_EXE_nova"), &[], ".i 1\n.o 1\nbogus\n");
    assert_eq!(code, 3, "{stderr}");
    assert_one_line_stderr(&stderr);
    assert!(stderr.starts_with("nova:"), "{stderr}");
}

#[test]
fn nova_exit_code_missing_file() {
    let (_, stderr, code) =
        run_with_code(env!("CARGO_BIN_EXE_nova"), &["/nonexistent/path.kiss2"], "");
    assert_eq!(code, 4, "{stderr}");
    assert_one_line_stderr(&stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn nova_exit_code_unknown_benchmark() {
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--bench", "no-such-machine"],
        "",
    );
    assert_eq!(code, 5, "{stderr}");
    assert_one_line_stderr(&stderr);
    assert!(stderr.contains("unknown embedded benchmark"), "{stderr}");
}

#[test]
fn nova_exit_code_removed_batch_flag() {
    // Suite sweeps run through `nova bench`; `--batch` is an unknown flag.
    for args in [&["--batch"][..], &["--portfolio", "--batch"]] {
        let (_, stderr, code) = run_with_code(env!("CARGO_BIN_EXE_nova"), args, "");
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn nova_exit_code_bad_flag_value() {
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--timeout-ms", "not-a-number"],
        TOY_KISS,
    );
    assert_eq!(code, 2, "{stderr}");
}

#[test]
fn nova_exit_code_bad_fault_plan() {
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--fault-plan", "nonsense-spec"],
        TOY_KISS,
    );
    assert_eq!(code, 2, "{stderr}");
    assert_one_line_stderr(&stderr);
    assert!(stderr.contains("bad --fault-plan"), "{stderr}");
}

#[test]
fn nova_exit_code_no_result_under_zero_budget() {
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--portfolio", "--timeout-ms", "0"],
        TOY_KISS,
    );
    assert_eq!(code, 1, "{stderr}");
}

#[test]
fn nova_fault_plan_degrades_to_anytime_codes() {
    // An injected deadline on the first espresso-stage operation fires
    // after the driver offered the completed encoding, so the run degrades
    // to a full code listing and exits 0.
    let (stdout, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--fault-plan", "stage.espresso:1:deadline"],
        TOY_KISS,
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("degraded anytime result"), "{stdout}");
    assert!(stdout.contains(".code a"), "{stdout}");
    assert!(stdout.contains(".code b"), "{stdout}");
}

#[test]
fn nova_fault_plan_injected_panic_is_contained() {
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--fault-plan", "*:1:panic"],
        TOY_KISS,
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("failed"), "{stderr}");
}

#[test]
fn nova_reads_stdin_via_explicit_dash() {
    let (stdout, stderr, ok) = run_with_stdin(env!("CARGO_BIN_EXE_nova"), &["-"], TOY_KISS);
    assert!(ok, "{stderr}");
    assert!(stdout.contains(".code a"), "{stdout}");
    // `-` is stdin by name: the report calls the machine "stdin", exactly
    // like the no-argument form.
    let (stdout, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["--portfolio", "--json", "-"],
        TOY_KISS,
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"machine\": \"stdin\""), "{stdout}");
}

/// Full service loop as real processes: boot `nova serve`, encode through
/// `nova --remote` twice (second answer must replay the first byte for
/// byte), map a server-rejected body onto the parse exit code, then
/// SIGTERM the server and require a clean drain (exit 0).
#[test]
fn nova_serve_remote_round_trip_and_sigterm_drain() {
    use std::io::{BufRead as _, BufReader};
    let mut server = Command::new(env!("CARGO_BIN_EXE_nova"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn server");
    // The first stdout line is the startup handshake carrying the
    // kernel-chosen port.
    let stdout = server.stdout.take().expect("stdout");
    let banner = BufReader::new(stdout)
        .lines()
        .next()
        .expect("banner line")
        .expect("read banner");
    let addr = banner
        .strip_prefix("# nova-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .trim()
        .to_string();

    let encode = || {
        run_with_code(
            env!("CARGO_BIN_EXE_nova"),
            &["--remote", &addr, "-e", "ihybrid", "-"],
            TOY_KISS,
        )
    };
    let (first, stderr, code) = encode();
    assert_eq!(code, 0, "{stderr}");
    assert!(first.contains("\"schema\": \"nova-bench/1\""), "{first}");
    assert!(first.contains("\"best\": \"ihybrid\""), "{first}");
    let (second, stderr, code) = encode();
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(first, second, "cache hit replays byte-identically");

    // A body the server rejects (HTTP 400) maps onto the parse exit code.
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--remote", &addr, "-"],
        "not kiss at all",
    );
    assert_eq!(code, 3, "{stderr}");
    assert_one_line_stderr(&stderr);

    // SIGTERM: drain in-flight work and exit 0 (`kill` is a shell builtin,
    // so this stays dependency-free).
    let sent = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", server.id())])
        .status()
        .expect("send SIGTERM");
    assert!(sent.success());
    let out = server.wait_with_output().expect("wait for server");
    assert_eq!(
        out.status.code(),
        Some(0),
        "server drains and exits 0; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A minimal hand-written `nova-trace/1` trace with two stages whose
/// durations are given in nanoseconds — the diff-test fixture.
fn synth_trace(espresso_ns: u64, embed_ns: u64) -> String {
    let mut out = String::from("{\"schema\":\"nova-trace/1\",\"unit\":\"ns\"}\n");
    let mut ts = 0u64;
    for (id, (name, dur)) in [("stage.espresso", espresso_ns), ("stage.embed", embed_ns)]
        .iter()
        .enumerate()
    {
        let (id, seq) = (id as u64 + 1, 2 * id as u64);
        out.push_str(&format!(
            "{{\"ev\":\"B\",\"name\":\"{name}\",\"id\":{id},\"parent\":0,\"tid\":1,\"ts\":{ts},\"seq\":{seq}}}\n"
        ));
        ts += dur;
        out.push_str(&format!(
            "{{\"ev\":\"E\",\"name\":\"{name}\",\"id\":{id},\"parent\":0,\"tid\":1,\"ts\":{ts},\"seq\":{}}}\n",
            seq + 1
        ));
    }
    out
}

#[test]
fn nova_trace_report_renders_a_real_trace() {
    let path = temp_path("report-in.jsonl");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = run_with_stdin(
        env!("CARGO_BIN_EXE_nova"),
        &["--portfolio", "--trace", path_s, "--trace-format", "jsonl"],
        TOY_KISS,
    );
    assert!(ok, "{stderr}");
    let (stdout, stderr, code) =
        run_with_code(env!("CARGO_BIN_EXE_nova"), &["trace-report", path_s], "");
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("span tree (total / self):"), "{stdout}");
    assert!(stdout.contains("per-stage aggregation:"), "{stdout}");
    assert!(stdout.contains("stage.espresso"), "{stdout}");
}

#[test]
fn nova_trace_report_diff_flags_a_slowed_stage() {
    let base = temp_path("diff-base.jsonl");
    let new = temp_path("diff-new.jsonl");
    std::fs::write(&base, synth_trace(1_000_000, 1_000_000)).unwrap();
    std::fs::write(&new, synth_trace(5_000_000, 1_000_000)).unwrap();
    let (base_s, new_s) = (base.to_str().unwrap(), new.to_str().unwrap());

    // The espresso stage is 5x slower than baseline: regression, exit 1.
    let (stdout, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["trace-report", new_s, "--diff", base_s, "--threshold", "50"],
        "",
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.contains("stage.espresso"), "{stdout}");
    assert!(stdout.contains("5.00x"), "{stdout}");
    assert!(!stdout.contains("stage.embed (5"), "{stdout}");

    // Same comparison the other way round: nothing slowed, exit 0.
    let (stdout, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["trace-report", base_s, "--diff", new_s, "--threshold", "50"],
        "",
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("no stage slowed"), "{stdout}");

    // A committed nova-bench/1 report works as the baseline too.
    let bench = temp_path("diff-bench.json");
    std::fs::write(
        &bench,
        "{\"schema\":\"nova-bench/1\",\"machines\":[{\"runs\":[{\"stages_ms\":{\"espresso\":1.0,\"embed\":1.0}}]}]}",
    )
    .unwrap();
    let (stdout, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &[
            "trace-report",
            new_s,
            "--diff",
            bench.to_str().unwrap(),
            "--threshold",
            "50",
        ],
        "",
    );
    assert_eq!(code, 1, "{stderr}");
    assert!(stdout.contains("stage.espresso"), "{stdout}");

    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&new).ok();
    std::fs::remove_file(&bench).ok();
}

#[test]
fn nova_trace_report_exit_codes_for_bad_input() {
    let (_, _, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["trace-report", "/nonexistent/trace.jsonl"],
        "",
    );
    assert_eq!(code, 4, "missing file is an I/O error");
    let garbage = temp_path("not-a-trace.jsonl");
    std::fs::write(&garbage, "hello\n").unwrap();
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["trace-report", garbage.to_str().unwrap()],
        "",
    );
    std::fs::remove_file(&garbage).ok();
    assert_eq!(code, 3, "malformed trace is a parse error");
    assert_one_line_stderr(&stderr);
}

#[test]
fn nova_serve_trace_dir_feeds_trace_report() {
    use std::io::{BufRead as _, BufReader};
    let dir = temp_path("serve-traces");
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = Command::new(env!("CARGO_BIN_EXE_nova"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--trace-dir",
            dir.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn server");
    let stdout = server.stdout.take().expect("stdout");
    let banner = BufReader::new(stdout)
        .lines()
        .next()
        .expect("banner line")
        .expect("read banner");
    let addr = banner
        .strip_prefix("# nova-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .trim()
        .to_string();
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--remote", &addr, "-e", "ihybrid", "-"],
        TOY_KISS,
    );
    assert_eq!(code, 0, "{stderr}");
    let _ = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", server.id())])
        .status();
    let _ = server.wait_with_output();

    // Exactly one request was served: one trace file, analyzable offline.
    let traces: Vec<_> = std::fs::read_dir(&dir)
        .expect("trace dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(traces.len(), 1, "{traces:?}");
    let (stdout, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["trace-report", traces[0].to_str().unwrap()],
        "",
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("request "), "traces carry the id: {stdout}");
    assert!(stdout.contains("stage.espresso"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nova_remote_exit_codes_for_unreachable_and_misuse() {
    // Nothing listens on the discard port: I/O-class failure.
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--remote", "127.0.0.1:9", "-"],
        TOY_KISS,
    );
    assert_eq!(code, 4, "{stderr}");
    assert_one_line_stderr(&stderr);
    // A bad flag is a usage error before any connection is tried.
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["--remote", "127.0.0.1:9", "--portfolio", "--batch"],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--remote"), "{stderr}");
}

#[test]
fn espresso_min_minimizes() {
    let (stdout, _, ok) = run_with_stdin(env!("CARGO_BIN_EXE_espresso-min"), &["-v"], TOY_PLA);
    assert!(ok);
    assert!(stdout.contains(".p 2"), "{stdout}");
}

#[test]
fn espresso_min_exact_mode() {
    let (stdout, stderr, ok) =
        run_with_stdin(env!("CARGO_BIN_EXE_espresso-min"), &["-e", "-v"], TOY_PLA);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("PASSED"));
    assert!(stdout.contains(".p 2"));
}

#[test]
fn espresso_min_rejects_bad_pla() {
    let (_, stderr, ok) = run_with_stdin(env!("CARGO_BIN_EXE_espresso-min"), &[], "garbage");
    assert!(!ok);
    assert!(stderr.contains("espresso-min:"));
}

#[test]
fn nova_bench_synthetic_streams_jsonl_and_replays_across_batch_jobs() {
    let spec = "machines=4,states=5,inputs=2,outputs=2,seed=11";
    let stream_for = |jobs: &str, tag: &str| -> Vec<String> {
        let path = temp_path(&format!("stream-{tag}.jsonl"));
        let path_s = path.to_str().unwrap().to_string();
        let (_, stderr, ok) = run_with_stdin(
            env!("CARGO_BIN_EXE_nova"),
            &[
                "bench",
                "--synthetic",
                spec,
                "--budget",
                "5000",
                "--batch-jobs",
                jobs,
                "--stream",
                &path_s,
            ],
            "",
        );
        assert!(ok, "{stderr}");
        assert!(stderr.contains("machines/sec"), "{stderr}");
        let text = std::fs::read_to_string(&path).expect("stream written");
        std::fs::remove_file(&path).ok();
        text.lines().map(str::to_string).collect()
    };
    let seq = stream_for("1", "seq");
    assert_eq!(seq.len(), 4 + 2, "header + 4 machines + summary");
    let header = json::parse(&seq[0]).expect("header parses");
    assert_eq!(
        header.get("schema"),
        Some(&json::Json::str("nova-bench-stream/1"))
    );
    let fingerprint = |line: &str| -> String {
        match json::parse(line).expect("line parses").get("fingerprint") {
            Some(json::Json::Str(fp)) => fp.clone(),
            other => panic!("no fingerprint in {line}: {other:?}"),
        }
    };
    let summary = json::parse(&seq[5]).expect("summary parses");
    let s = summary.get("summary").expect("summary object");
    assert_eq!(s.get("machines"), Some(&json::Json::uint(4)));
    assert!(s.get("machines_per_sec").is_some());
    // The same sweep at --batch-jobs 3 replays to the same fingerprints.
    let par = stream_for("3", "par");
    let fps =
        |lines: &[String]| -> Vec<String> { lines[1..=4].iter().map(|l| fingerprint(l)).collect() };
    assert_eq!(fps(&seq), fps(&par), "fingerprints diverged across jobs");
}

#[test]
fn nova_bench_unwritable_output_fails_fast_with_io_exit() {
    // The output files are opened before the sweep: a bad path must exit 4
    // immediately (no machines run), never panic at the finish line.
    for flag in ["--bench-out", "--stream", "--trace"] {
        let (_, stderr, code) = run_with_code(
            env!("CARGO_BIN_EXE_nova"),
            &[
                "bench",
                "--synthetic",
                "machines=1000,states=8",
                flag,
                "/nonexistent-dir/out.json",
            ],
            "",
        );
        assert_eq!(code, 4, "{flag}: {stderr}");
        assert!(stderr.contains("cannot write"), "{flag}: {stderr}");
        assert!(!stderr.contains("panic"), "{flag}: {stderr}");
    }
}

#[test]
fn nova_bench_rejects_bad_spec_and_conflicting_corpora() {
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["bench", "--synthetic", "machines=0"],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("machines"), "{stderr}");
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["bench", "--synthetic", "states=9,family=kstage"],
        "",
    );
    assert_eq!(code, 2, "kstage needs power-of-two states: {stderr}");
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["bench", "--synthetic", "machines=1", "--filter", "lion"],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["bench", "--filter", "nope"],
        "",
    );
    assert_eq!(code, 5, "{stderr}");
    assert!(stderr.contains("unknown embedded benchmark"), "{stderr}");
}

#[test]
fn nova_bench_stream_carries_the_throughput_baseline() {
    // The stream's header and summary lines are the throughput baseline
    // (BENCH_SCALE.jsonl is exactly those two lines); no separate file.
    let spec = "machines=3,states=5,inputs=2,outputs=2,seed=3";
    let (stdout, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &[
            "bench",
            "--synthetic",
            spec,
            "--budget",
            "5000",
            "--batch-jobs",
            "2",
            "--stream",
            "-",
        ],
        "",
    );
    assert_eq!(code, 0, "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1 + 3 + 1, "header + machines + summary");
    let header = json::parse(lines[0]).expect("header parses");
    let corpus = fsm::ScaleSpec::parse(spec).unwrap().spec_string();
    assert_eq!(header.get("corpus"), Some(&json::Json::str(corpus)));
    assert_eq!(header.get("batch_jobs"), Some(&json::Json::uint(2)));
    let summary = json::parse(lines[4]).expect("summary parses");
    let s = summary.get("summary").expect("summary object");
    assert_eq!(s.get("machines"), Some(&json::Json::uint(3)));
    assert!(
        matches!(s.get("machines_per_sec"), Some(json::Json::Float(r)) if *r > 0.0),
        "{s:?}"
    );

    // There is no separate baseline file, so its flag is unknown.
    let (_, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &["bench", "--synthetic", spec, "--scale-out", "scale.json"],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
}

/// Runs `nova bench` on `spec` with `extra` flags, streaming into `stream`
/// with `--resume`.
fn resume_sweep(spec: &str, stream: &std::path::Path, extra: &[&str]) -> (String, String, i32) {
    let mut args = vec![
        "bench",
        "--synthetic",
        spec,
        "--stream",
        stream.to_str().unwrap(),
        "--resume",
    ];
    args.extend_from_slice(extra);
    run_with_code(env!("CARGO_BIN_EXE_nova"), &args, "")
}

/// `(swept, resumed)` from the stderr line `swept N machines (+M resumed)`.
fn swept_and_resumed(stderr: &str) -> (usize, usize) {
    let tail = stderr.split("swept ").nth(1).expect("sweep line");
    let (n, rest) = tail.split_once(" machines (+").expect("resume count");
    let (m, _) = rest.split_once(" resumed)").expect("resume count");
    (n.parse().unwrap(), m.parse().unwrap())
}

/// Byte offsets just past each newline of `bytes`.
fn line_ends(bytes: &[u8]) -> Vec<usize> {
    (0..bytes.len())
        .filter(|&i| bytes[i] == b'\n')
        .map(|i| i + 1)
        .collect()
}

#[test]
fn nova_bench_resumes_its_own_stream_byte_identically() {
    let spec = "machines=6,states=5,inputs=2,outputs=2,seed=11";
    let budget = ["--budget", "5000"];
    let base = temp_path("resume-base.jsonl");
    std::fs::remove_file(&base).ok();
    let (_, stderr, code) =
        resume_sweep(spec, &base, &[&budget[..], &["--batch-jobs", "2"]].concat());
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(swept_and_resumed(&stderr), (6, 0), "{stderr}");
    let full = std::fs::read(&base).expect("stream written");
    let text = String::from_utf8(full.clone()).unwrap();
    assert!(
        !text.contains("wall_ms") && !text.contains("batch_jobs"),
        "{text}"
    );
    let header = json::parse(text.lines().next().unwrap()).unwrap();
    assert!(header.get("options").is_some() && header.get("corpus_fp").is_some());
    let ends = line_ends(&full);
    assert_eq!(ends.len(), 1 + 6 + 1, "header + machines + summary");

    // Each copy, cut where a kill could leave it, resumes to the same bytes.
    let cuts = [
        ("inside the header", ends[0] / 2),
        ("mid machine line", ends[2] + 9),
        ("right after a newline", ends[4]),
        ("complete", full.len()),
    ];
    for (what, cut) in cuts {
        let copy = temp_path("resume-cut.jsonl");
        std::fs::write(&copy, &full[..cut]).unwrap();
        let (_, stderr, code) =
            resume_sweep(spec, &copy, &[&budget[..], &["--batch-jobs", "3"]].concat());
        assert_eq!(code, 0, "{what}: {stderr}");
        let (n, m) = swept_and_resumed(&stderr);
        assert_eq!(n + m, 6, "{what}: {stderr}");
        assert_eq!(std::fs::read(&copy).unwrap(), full, "{what}: bytes differ");
        std::fs::remove_file(&copy).ok();
    }
    std::fs::remove_file(&base).ok();

    // A quarantined machine's line carries its reason, so a cut sweep
    // rebuilds the same summary quarantine list.
    let spec = "machines=4,states=6,inputs=2,outputs=2,seed=9";
    let panic = ["--fault-plan", "*:1:panic", "--batch-jobs", "2"];
    let base = temp_path("resume-panic.jsonl");
    std::fs::remove_file(&base).ok();
    let (_, stderr, code) = resume_sweep(spec, &base, &panic);
    assert_eq!(code, 0, "{stderr}");
    let full = std::fs::read(&base).unwrap();
    let ends = line_ends(&full);
    std::fs::write(&base, &full[..ends[2]]).unwrap();
    let (_, stderr, code) = resume_sweep(spec, &base, &panic);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(swept_and_resumed(&stderr), (2, 2), "{stderr}");
    assert!(stderr.contains("quarantined 4 machine(s)"), "{stderr}");
    let resumed = std::fs::read(&base).unwrap();
    assert_eq!(resumed, full, "quarantine list rebuilt differently");
    let text = String::from_utf8(resumed).unwrap();
    let summary = json::parse(text.lines().last().unwrap()).unwrap();
    let Some(json::Json::Arr(q)) = summary.get("summary").and_then(|s| s.get("quarantine")) else {
        panic!("quarantine section missing: {text}");
    };
    assert_eq!(q.len(), 4);
    std::fs::remove_file(&base).ok();
}

#[test]
fn nova_bench_quarantines_always_crashing_machines_and_exits_zero() {
    // An injected always-panic fault plan: every machine crashes on its one
    // run, lands in quarantine, and the sweep still completes with exit 0.
    let (stdout, stderr, code) = run_with_code(
        env!("CARGO_BIN_EXE_nova"),
        &[
            "bench",
            "--synthetic",
            "machines=3,states=6,inputs=2,outputs=2,seed=9",
            "--fault-plan",
            "*:1:panic",
            "--batch-jobs",
            "2",
            "--stream",
            "-",
        ],
        "",
    );
    assert_eq!(code, 0, "quarantine is not a failure: {stderr}");
    assert!(stderr.contains("quarantined 3 machine(s)"), "{stderr}");
    assert!(!stderr.contains("retry"), "nothing is retried: {stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1 + 3 + 1, "header + machines + summary");
    let summary = json::parse(lines.last().unwrap()).expect("summary parses");
    let s = summary.get("summary").expect("summary object");
    assert_eq!(s.get("quarantined"), Some(&json::Json::uint(3)));
    let Some(json::Json::Arr(q)) = s.get("quarantine") else {
        panic!("quarantine section missing: {stdout}");
    };
    assert_eq!(q.len(), 3);
    for (i, entry) in q.iter().enumerate() {
        assert_eq!(entry.get("index"), Some(&json::Json::uint(i as u64)));
        assert_eq!(entry.get("attempts"), None, "each machine runs once");
        assert!(
            matches!(entry.get("reason"), Some(json::Json::Str(r)) if r.contains("injected panic")),
            "{entry:?}"
        );
    }

    // The flags of the removed retry ladder are usage errors.
    for gone in [["--retries", "1"], ["--watchdog-ms", "5"]] {
        let (_, stderr, code) = run_with_code(
            env!("CARGO_BIN_EXE_nova"),
            &[
                "bench",
                "--synthetic",
                "machines=1,states=4,inputs=1,outputs=1,seed=9",
                gone[0],
                gone[1],
            ],
            "",
        );
        assert_eq!(code, 2, "{gone:?}: {stderr}");
    }
}

#[test]
fn nova_bench_resume_refusals_exit_2_and_leave_the_file_unchanged() {
    let spec = "machines=2,states=5,inputs=2,outputs=2,seed=1";
    let nova = env!("CARGO_BIN_EXE_nova");
    // The record must be a file of its own.
    for args in [
        &["bench", "--synthetic", spec, "--stream", "-", "--resume"][..],
        &["bench", "--synthetic", spec, "--resume"],
    ] {
        let (_, stderr, code) = run_with_code(nova, args, "");
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.contains("--resume requires --stream FILE"),
            "{stderr}"
        );
    }
    let (_, stderr, code) = run_with_code(
        nova,
        &[
            "bench",
            "--synthetic",
            spec,
            "--stream",
            "/dev/null",
            "--resume",
        ],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("not a regular file"), "{stderr}");
    let stream = temp_path("refused.jsonl");
    let stream_s = stream.to_str().unwrap();
    let (_, stderr, code) = run_with_code(
        nova,
        &[
            "bench",
            "--synthetic",
            spec,
            "--stream",
            stream_s,
            "--resume",
            "--bench-out",
            "x.json",
        ],
        "",
    );
    assert_eq!(code, 2, "{stderr}");
    // The removed second file's flag is unknown.
    let (_, stderr, code) = run_with_code(
        nova,
        &[
            "bench",
            "--synthetic",
            spec,
            "--stream",
            stream_s,
            "--journal",
            "j",
        ],
        "",
    );
    assert_eq!(code, 2, "{stderr}");

    // A record binds the options that can change a line and the corpus.
    let refused = |written: &[&str], resumed: &[&str]| {
        std::fs::remove_file(&stream).ok();
        let (_, stderr, code) = run_with_code(nova, written, "");
        assert_eq!(code, 0, "{written:?}: {stderr}");
        let before = std::fs::read(&stream).expect("stream written");
        let (_, stderr, code) = run_with_code(nova, resumed, "");
        assert_eq!(code, 2, "{resumed:?}: {stderr}");
        assert!(
            stderr.contains("is not the record of this sweep"),
            "{stderr}"
        );
        assert_eq!(
            std::fs::read(&stream).unwrap(),
            before,
            "{resumed:?} changed the file"
        );
        stderr
    };
    let sweep = [
        "bench",
        "--synthetic",
        spec,
        "--stream",
        stream_s,
        "--resume",
    ];
    for (written, resumed) in [
        (&["--budget", "100"][..], &["--budget", "1"][..]),
        (&["--timeout-ms", "100000"], &["--timeout-ms", "100"]),
        (
            &["--fault-plan", "*:1:panic"],
            &["--fault-plan", "*:2:panic"],
        ),
    ] {
        let stderr = refused(
            &[&sweep[..], written].concat(),
            &[&sweep[..], resumed].concat(),
        );
        assert!(stderr.contains("options"), "{stderr}");
    }
    // Two filters of the same size both describe as suite:2: only the
    // corpus fingerprint tells them apart.
    let filtered = |names| {
        [
            "bench", "--filter", names, "--budget", "100", "--stream", stream_s, "--resume",
        ]
    };
    let stderr = refused(&filtered("lion,bbtas"), &filtered("lion,dk27"));
    assert!(stderr.contains("corpus_fp"), "{stderr}");
    // A timed stream, written without --resume, is not a record.
    let stderr = refused(&sweep[..5], &sweep);
    assert!(stderr.contains("options is absent"), "{stderr}");
    std::fs::remove_file(&stream).ok();
}

#[test]
fn nova_bench_traced_lines_carry_each_runs_metrics() {
    let nova = env!("CARGO_BIN_EXE_nova");
    let trace = temp_path("metrics-trace.jsonl");
    let trace_s = trace.to_str().unwrap();
    let runs_of = |stdout: &str| -> Vec<json::Json> {
        let line = stdout.lines().nth(1).expect("machine line");
        match json::parse(line).expect("line parses").get("runs") {
            Some(json::Json::Arr(runs)) => runs.clone(),
            other => panic!("no runs: {other:?}"),
        }
    };
    let (stdout, stderr, code) = run_with_code(
        nova,
        &[
            "bench",
            "--filter",
            "lion",
            "--trace",
            trace_s,
            "--trace-format",
            "jsonl",
            "--stream",
            "-",
        ],
        "",
    );
    std::fs::remove_file(&trace).ok();
    assert_eq!(code, 0, "{stderr}");
    let runs = runs_of(&stdout);
    let ihybrid = runs
        .iter()
        .find(|r| r.get("algorithm") == Some(&json::Json::str("ihybrid")))
        .expect("ihybrid ran");
    let nodes = ihybrid
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("embed.nodes_visited"));
    assert!(
        matches!(nodes, Some(json::Json::Int(n)) if *n > 0),
        "{ihybrid:?}"
    );

    let (stdout, stderr, code) =
        run_with_code(nova, &["bench", "--filter", "lion", "--stream", "-"], "");
    assert_eq!(code, 0, "{stderr}");
    assert!(
        !stdout.contains("\"metrics\""),
        "untraced lines carry no metrics"
    );
}
