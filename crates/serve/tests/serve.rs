//! End-to-end tests of the resident encoding service over real sockets:
//! the cache contract (byte-identical hits, one engine run), eviction under
//! a tiny byte bound, degraded results bypassing the cache, admission
//! control under overload, and graceful drain.

use nova_serve::cache::CacheConfig;
use nova_serve::client::{self, RemoteResponse};
use nova_serve::{serve, ServerConfig};
use nova_trace::json::{self, Json};

fn kiss(name: &str) -> String {
    fsm::benchmarks::by_name(name)
        .expect("embedded benchmark")
        .fsm
        .to_kiss()
}

fn start(cfg: ServerConfig) -> (nova_serve::ServerHandle, String) {
    let handle = serve(cfg).expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn counter(doc: &Json, group: &str, name: &str) -> i128 {
    match doc.get(group).and_then(|g| g.get(name)) {
        Some(Json::Int(v)) => *v,
        other => panic!("{group}.{name} missing: {other:?}"),
    }
}

fn assert_bench_schema(resp: &RemoteResponse) -> Json {
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = json::parse(&resp.body).expect("response is JSON");
    assert_eq!(doc.get("schema"), Some(&Json::str("nova-bench/1")));
    doc
}

#[test]
fn repeated_request_is_served_from_cache_byte_identically() {
    let (handle, addr) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let body = kiss("lion");
    let first = client::post_kiss(&addr, &body, "algorithms=ihybrid").expect("post");
    let doc = assert_bench_schema(&first);
    assert!(!first.cache_hit());
    let machines = match doc.get("machines") {
        Some(Json::Arr(m)) => m,
        other => panic!("machines missing: {other:?}"),
    };
    assert_eq!(machines.len(), 1);
    assert_eq!(
        machines[0].get("best"),
        Some(&Json::str("ihybrid")),
        "single-algorithm run completes"
    );

    // Same machine again — different source formatting, same fingerprint.
    let reformatted = format!("# a comment\n{body}\n");
    let second = client::post_kiss(&addr, &reformatted, "algorithms=ihybrid").expect("post");
    assert_eq!(second.status, 200);
    assert!(second.cache_hit(), "second request hits the cache");
    assert_eq!(first.body, second.body, "cache hits are byte-identical");
    assert_eq!(
        first.header("x-nova-fingerprint"),
        second.header("x-nova-fingerprint")
    );

    let counters =
        json::parse(&client::get_counters(&addr).expect("counters").body).expect("counters JSON");
    assert_eq!(counters.get("schema"), Some(&Json::str("nova-serve/1")));
    assert_eq!(counter(&counters, "cache", "hits"), 1);
    assert_eq!(counter(&counters, "cache", "misses"), 1);
    assert_eq!(
        counter(&counters, "engine", "runs"),
        1,
        "exactly one engine run for two identical requests"
    );

    // Different options under the same machine miss again.
    let other = client::post_kiss(&addr, &body, "algorithms=igreedy").expect("post");
    assert!(!other.cache_hit());
    assert_ne!(other.body, first.body);

    handle.shutdown();
    handle.join();
}

#[test]
fn tiny_byte_bound_evicts_lru_entries() {
    // Size the bound from a real response: fits one body, not two.
    let (probe, addr) = start(ServerConfig::default());
    let body_len = client::post_kiss(&addr, &kiss("lion"), "algorithms=ihybrid")
        .expect("post")
        .body
        .len();
    probe.shutdown();
    probe.join();

    let (handle, addr) = start(ServerConfig {
        cache: CacheConfig {
            max_entries: 1024,
            max_bytes: body_len + body_len / 2,
        },
        ..ServerConfig::default()
    });
    let post = |name: &str| client::post_kiss(&addr, &kiss(name), "algorithms=ihybrid").unwrap();
    assert!(!post("lion").cache_hit());
    assert!(post("lion").cache_hit(), "fits in the bound alone");
    assert!(!post("dk27").cache_hit(), "different machine: miss");
    // dk27's insertion must have evicted lion to satisfy the byte bound.
    let counters = json::parse(&client::get_counters(&addr).unwrap().body).unwrap();
    assert!(
        counter(&counters, "cache", "evictions") >= 1,
        "{counters:?}"
    );
    assert!(counter(&counters, "cache", "bytes") <= (body_len + body_len / 2) as i128);
    assert!(!post("lion").cache_hit(), "lion was evicted: miss again");
    handle.shutdown();
    handle.join();
}

#[test]
fn degraded_results_are_returned_but_never_cached() {
    let (handle, addr) = start(ServerConfig::default());
    // A deterministic injected budget fault mid-espresso: the engine's
    // anytime plumbing degrades to the best-so-far encoding.
    let q = "algorithms=ihybrid&jobs=1&fault_plan=stage.espresso%3A1%3Abudget";
    let first = client::post_kiss(&addr, &kiss("lion"), q).expect("post");
    let doc = assert_bench_schema(&first);
    let m = match doc.get("machines") {
        Some(Json::Arr(machines)) => machines[0].clone(),
        other => panic!("machines missing: {other:?}"),
    };
    assert_eq!(m.get("best"), Some(&Json::Null), "nothing completed");
    let degraded = m.get("degraded").expect("degraded fallback present");
    assert_eq!(degraded.get("reason"), Some(&Json::str("budget")));
    assert_eq!(degraded.get("algorithm"), Some(&Json::str("ihybrid")));

    // Re-POST: same deterministic result, but *recomputed* — degraded
    // reports never enter the cache.
    let second = client::post_kiss(&addr, &kiss("lion"), q).expect("post");
    assert!(!second.cache_hit());
    let counters = json::parse(&client::get_counters(&addr).unwrap().body).unwrap();
    assert_eq!(counter(&counters, "cache", "hits"), 0);
    assert_eq!(counter(&counters, "engine", "runs"), 2);
    assert_eq!(counters.get("degraded"), Some(&Json::Int(2)));
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_posts_all_answer_valid_reports() {
    let (handle, addr) = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let names = ["lion", "dk27", "bbtas", "beecount", "lion", "dk27"];
    let results: Vec<RemoteResponse> = std::thread::scope(|s| {
        let threads: Vec<_> = names
            .iter()
            .map(|name| {
                let addr = addr.clone();
                s.spawn(move || {
                    client::post_kiss(&addr, &kiss(name), "algorithms=ihybrid,igreedy")
                        .expect("post")
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    for (name, resp) in names.iter().zip(&results) {
        let doc = assert_bench_schema(resp);
        let Some(Json::Arr(machines)) = doc.get("machines") else {
            panic!("{name}: machines missing");
        };
        assert!(
            machines[0].get("best").is_some_and(|b| *b != Json::Null),
            "{name}: no winner in {}",
            resp.body
        );
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_requests_answer_400_family() {
    let (handle, addr) = start(ServerConfig::default());
    let bad_kiss = client::post_kiss(&addr, "this is not kiss2\n", "").expect("post");
    assert_eq!(bad_kiss.status, 400);
    assert!(bad_kiss.body.contains("error"), "{}", bad_kiss.body);

    let bad_option = client::post_kiss(&addr, &kiss("lion"), "bits=banana").expect("post");
    assert_eq!(bad_option.status, 400);
    assert!(
        bad_option.body.contains("bits=banana"),
        "{}",
        bad_option.body
    );

    let not_found = client::request(&addr, "GET", "/nope", None, &[]).expect("req");
    assert_eq!(not_found.status, 404);
    let wrong_method = client::request(&addr, "GET", "/encode", None, &[]).expect("req");
    assert_eq!(wrong_method.status, 405);
    handle.shutdown();
    handle.join();
}

#[test]
fn json_machine_bodies_answer_400() {
    // The body is KISS2 whatever the Content-Type says: a machine JSON
    // document is a parse error and runs no engine.
    let (handle, addr) = start(ServerConfig::default());
    let body = r#"{"name":"toy","inputs":1,"outputs":1,"states":["a","b"],"reset":0,
        "transitions":[["0",0,0,"0"],["1",0,1,"0"],["-",1,0,"1"]]}"#;
    let resp = client::request(
        &addr,
        "POST",
        "/encode?algorithms=ihybrid",
        Some("application/json"),
        body.as_bytes(),
    )
    .expect("post");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let counters = json::parse(&client::get_counters(&addr).expect("counters").body).unwrap();
    assert_eq!(counter(&counters, "engine", "runs"), 0);
    handle.shutdown();
    handle.join();
}

#[test]
fn overload_sheds_with_503_and_retry_after() {
    // One worker, a queue of one: a burst of slow-ish requests must see
    // some 503s with Retry-After while admitted ones still succeed.
    let (handle, addr) = start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let responses: Vec<RemoteResponse> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || client::post_kiss(&addr, &kiss("beecount"), "").expect("post"))
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed = responses.iter().filter(|r| r.status == 503).count();
    assert_eq!(ok + shed, responses.len(), "only 200 or 503 under load");
    assert!(ok >= 1, "admitted requests complete");
    for r in responses.iter().filter(|r| r.status == 503) {
        assert_eq!(
            r.header("retry-after"),
            Some("1"),
            "503 carries Retry-After"
        );
        assert!(r.body.contains("overloaded"));
    }
    let counters = json::parse(&client::get_counters(&addr).unwrap().body).unwrap();
    assert_eq!(
        counter(&counters, "queue", "rejected"),
        shed as i128,
        "rejections are counted"
    );
    handle.shutdown();
    handle.join();
}

/// Each numeric `nova-serve/1` leaf and the `/metrics` sample carrying the
/// same number.
const COUNTERS_AS_SAMPLES: [(&str, &str); 15] = [
    ("cache.hits", "nova_serve_cache_hits_total"),
    ("cache.misses", "nova_serve_cache_misses_total"),
    ("cache.insertions", "nova_serve_cache_insertions_total"),
    ("cache.evictions", "nova_serve_cache_evictions_total"),
    (
        "cache.oversize_rejects",
        "nova_serve_cache_oversize_rejects_total",
    ),
    ("cache.entries", "nova_serve_cache_entries"),
    ("cache.bytes", "nova_serve_cache_bytes"),
    ("queue.depth", "nova_serve_queue_depth"),
    ("queue.capacity", "nova_serve_queue_capacity"),
    ("queue.rejected", "nova_serve_queue_rejected_total"),
    ("engine.runs", "nova_serve_engine_runs_total"),
    ("engine.failures", "nova_serve_engine_failures_total"),
    ("requests", "nova_serve_requests_total"),
    ("bad_requests", "nova_serve_bad_requests_total"),
    ("degraded", "nova_serve_degraded_total"),
];

/// The `/counters` leaf at a `group.key` (or top-level) path.
fn leaf<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    match path.split_once('.') {
        Some((group, key)) => doc.get(group)?.get(key),
        None => doc.get(path),
    }
}

#[test]
fn metrics_endpoint_exposes_prometheus_text() {
    let (handle, addr) = start(ServerConfig::default());
    let body = kiss("lion");
    client::post_kiss(&addr, &body, "algorithms=ihybrid").expect("post");
    client::post_kiss(&addr, &body, "algorithms=ihybrid").expect("post");
    let bad = client::post_kiss(&addr, "this is not kiss2\n", "").expect("post");
    assert_eq!(bad.status, 400);

    let counters =
        json::parse(&client::get_counters(&addr).expect("counters").body).expect("counters JSON");
    let resp = client::request(&addr, "GET", "/metrics", None, &[]).expect("scrape");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    let text = &resp.body;
    // The always-on latency histogram: TYPE line, cumulative buckets
    // ending at +Inf, and exact sum/count series.
    assert!(text.contains("# TYPE nova_serve_request_latency_us histogram"));
    assert!(text.contains("nova_serve_request_latency_us_bucket{le=\"+Inf\"}"));
    assert!(text.contains("nova_serve_request_latency_us_sum "));
    assert!(text.contains("nova_serve_request_latency_us_count "));
    // Cache traffic shows up as counters: one miss then one hit.
    assert!(text.contains("nova_serve_cache_hits_total 1"), "{text}");
    assert!(text.contains("nova_serve_cache_misses_total 1"), "{text}");
    assert!(text.contains("# TYPE nova_serve_queue_depth gauge"));
    // Every sample line parses as `name[{labels}] value`.
    let mut samples = std::collections::BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
        assert!(series.starts_with("nova_"), "{line}");
        value.parse::<f64>().unwrap_or_else(|_| panic!("{line}"));
        samples.insert(series.to_string(), value.to_string());
    }

    // Both views come from one snapshot: every /counters number that
    // /metrics also exposes is the same number. The only difference is
    // `requests`, since the /counters fetch was itself a request.
    assert_eq!(leaf(&counters, "requests"), Some(&Json::Int(4)));
    assert_eq!(leaf(&counters, "bad_requests"), Some(&Json::Int(1)));
    for (path, sample) in COUNTERS_AS_SAMPLES {
        let Some(&Json::Int(n)) = leaf(&counters, path) else {
            panic!("/counters {path} is not a number: {counters:?}");
        };
        let expected = if path == "requests" { n + 1 } else { n };
        assert_eq!(
            samples.get(sample).map(String::as_str),
            Some(expected.to_string().as_str()),
            "/counters {path} vs /metrics {sample}"
        );
    }
    // ...and the table covers every numeric leaf.
    let Json::Obj(groups) = &counters else {
        panic!("/counters is not an object");
    };
    for (group, value) in groups {
        let leaves = match value {
            Json::Obj(leaves) => leaves
                .iter()
                .map(|(k, v)| (format!("{group}.{k}"), v))
                .collect(),
            v => vec![(group.clone(), v)],
        };
        for (path, v) in leaves {
            if matches!(v, Json::Int(_)) {
                assert!(
                    COUNTERS_AS_SAMPLES.iter().any(|(p, _)| *p == path),
                    "/counters {path} has no /metrics sample"
                );
            }
        }
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn queue_depth_zero_serves_as_depth_one_and_reports_healthy() {
    let (handle, addr) = start(ServerConfig {
        queue_depth: 0,
        ..ServerConfig::default()
    });
    let health = client::request(&addr, "GET", "/healthz", None, &[]).expect("healthz");
    let doc = json::parse(&health.body).expect("healthz JSON");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
    assert_eq!(doc.get("state"), Some(&Json::str("ok")));
    let resp = client::post_kiss(&addr, &kiss("lion"), "algorithms=ihybrid").expect("post");
    assert_bench_schema(&resp);
    let counters = json::parse(&client::get_counters(&addr).unwrap().body).unwrap();
    assert_eq!(counter(&counters, "queue", "capacity"), 1);
    let metrics = client::request(&addr, "GET", "/metrics", None, &[]).expect("scrape");
    assert!(
        metrics.body.contains("\nnova_serve_queue_capacity 1\n"),
        "{}",
        metrics.body
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn every_response_carries_a_deterministic_request_id() {
    let (handle, addr) = start(ServerConfig::default());
    let first = client::post_kiss(&addr, &kiss("lion"), "algorithms=ihybrid").expect("post");
    let second = client::post_kiss(&addr, &kiss("lion"), "algorithms=ihybrid").expect("post");
    let id1 = first.header("x-nova-request-id").expect("id on response");
    let id2 = second.header("x-nova-request-id").expect("id on response");
    for id in [id1, id2] {
        assert_eq!(id.len(), 16, "{id}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
    }
    assert_ne!(id1, id2, "every admission mints a fresh id");
    // Error responses carry one too.
    let bad = client::post_kiss(&addr, "not kiss", "").expect("post");
    assert_eq!(bad.status, 400);
    assert!(bad.header("x-nova-request-id").is_some());
    let id1 = id1.to_string();
    handle.shutdown();
    handle.join();

    // A fresh server: the first admission mints the same id.
    let (handle, addr) = start(ServerConfig::default());
    let again = client::post_kiss(&addr, &kiss("lion"), "algorithms=ihybrid").expect("post");
    assert_eq!(
        again.header("x-nova-request-id"),
        Some(id1.as_str()),
        "ids are deterministic in admission order"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn trace_dir_writes_one_trace_per_request_stamped_with_its_id() {
    let dir = std::env::temp_dir().join(format!("nova-serve-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, addr) = start(ServerConfig {
        trace_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let resp = client::post_kiss(&addr, &kiss("lion"), "algorithms=ihybrid").expect("post");
    assert_eq!(resp.status, 200);
    // A traced request's runs carry their metrics in the response too.
    assert!(
        resp.body.contains("\"embed.nodes_visited\""),
        "{}",
        resp.body
    );
    let id = resp.header("x-nova-request-id").expect("id").to_string();
    handle.shutdown();
    handle.join();

    let path = dir.join(format!("req-{id}.jsonl"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("trace file {} missing: {e}", path.display()));
    let header = json::parse(text.lines().next().expect("header line")).expect("header JSON");
    assert_eq!(header.get("schema"), Some(&Json::str("nova-trace/1")));
    assert_eq!(header.get("req"), Some(&Json::str(id.clone())));
    // Every span event in the trace is stamped with the request's id.
    let mut span_events = 0;
    for line in text.lines().skip(1) {
        let v = json::parse(line).expect("trace line parses");
        if matches!(v.get("ev"), Some(Json::Str(s)) if s == "B" || s == "E") {
            assert_eq!(v.get("req"), Some(&Json::str(id.clone())), "{line}");
            span_events += 1;
        }
    }
    assert!(span_events > 0, "the engine run produced spans");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthz_reports_version_and_uptime() {
    let (handle, addr) = start(ServerConfig::default());
    let resp = client::request(&addr, "GET", "/healthz", None, &[]).expect("healthz");
    assert_eq!(resp.status, 200);
    let doc = json::parse(&resp.body).expect("healthz JSON");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("state"), Some(&Json::str("ok")));
    assert_eq!(
        doc.get("version"),
        Some(&Json::str(env!("CARGO_PKG_VERSION")))
    );
    assert!(
        matches!(doc.get("uptime_ms"), Some(Json::Int(ms)) if *ms >= 0),
        "{doc:?}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn injected_faults_do_not_refuse_other_requests() {
    // An injected panic fails only the request that carries it: the engine
    // is a pure function of (machine, options), so a run of such failures
    // predicts nothing about another machine's request.
    let (handle, addr) = start(ServerConfig::default());
    let q = "algorithms=ihybrid&jobs=1&fault_plan=*%3A1%3Apanic";
    for i in 0..8 {
        let resp = client::post_kiss(&addr, &kiss("lion"), q).expect("post");
        assert_eq!(resp.status, 200, "faulted request {i}: {}", resp.body);
    }

    let other = client::post_kiss(&addr, &kiss("bbtas"), "algorithms=ihybrid").expect("post");
    let doc = assert_bench_schema(&other);
    assert_eq!(other.header("x-nova-cache"), Some("miss"));
    let Some(Json::Arr(machines)) = doc.get("machines") else {
        panic!("machines missing: {}", other.body);
    };
    assert_eq!(machines[0].get("best"), Some(&Json::str("ihybrid")));

    let health = client::request(&addr, "GET", "/healthz", None, &[]).expect("healthz");
    let doc = json::parse(&health.body).expect("healthz JSON");
    assert_eq!(doc.get("state"), Some(&Json::str("ok")), "{doc:?}");

    let counters = json::parse(&client::get_counters(&addr).unwrap().body).unwrap();
    assert_eq!(counter(&counters, "engine", "failures"), 8);
    assert_eq!(counter(&counters, "engine", "runs"), 9);
    handle.shutdown();
    handle.join();
}

/// Reads one full HTTP request (headers + declared body) off `stream`.
fn read_http_request(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read as _;
    let mut data = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf).expect("read request");
        if n == 0 {
            break;
        }
        data.extend_from_slice(&buf[..n]);
        if let Some(head_end) = data.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&data[..head_end]);
            let len = head
                .lines()
                .find_map(|l| {
                    let (name, value) = l.split_once(':')?;
                    if name.eq_ignore_ascii_case("content-length") {
                        value.trim().parse::<usize>().ok()
                    } else {
                        None
                    }
                })
                .unwrap_or(0);
            if data.len() >= head_end + 4 + len {
                break;
            }
        }
    }
    data
}

#[test]
fn client_retries_503_pushback_until_the_service_recovers() {
    use std::io::Write as _;

    // A hand-rolled one-thread "service" that answers 503 + Retry-After
    // twice, then 200 — the shape of a briefly full admission queue.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let mut served = 0u32;
        for status in [503u16, 503, 200] {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = read_http_request(&mut stream);
            served += 1;
            let body = if status == 503 { "busy" } else { "done" };
            write!(
                stream,
                "HTTP/1.1 {status} X\r\nRetry-After: 0\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .expect("respond");
        }
        served
    });

    let resp = client::post_kiss_retry(&addr, TOYISH_KISS, "").expect("retried post");
    assert_eq!(resp.status, 200, "third attempt lands on the 200");
    assert_eq!(resp.body, "done");
    assert_eq!(server.join().unwrap(), 3, "client made exactly 3 attempts");
}

#[test]
fn client_returns_the_final_503_when_attempts_exhaust() {
    use std::io::Write as _;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let mut served = 0u32;
        for _ in 0..3 {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = read_http_request(&mut stream);
            served += 1;
            write!(
                stream,
                "HTTP/1.1 503 X\r\nRetry-After: 0\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbusy"
            )
            .expect("respond");
        }
        served
    });

    let resp = client::post_kiss_retry(&addr, TOYISH_KISS, "").expect("post");
    assert_eq!(resp.status, 503, "the final 503 is returned as-is");
    assert_eq!(server.join().unwrap(), 3, "exactly 3 attempts");
}

/// A tiny KISS body for the fake-service client tests (never parsed there).
const TOYISH_KISS: &str = ".i 1\n.o 1\n.s 2\n0 a a 0\n1 a b 1\n";

#[test]
fn shutdown_drains_admitted_work() {
    let (handle, addr) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    // Admit a few requests, then immediately request shutdown: every
    // admitted request must still be answered in full.
    let responses: Vec<RemoteResponse> = std::thread::scope(|s| {
        let threads: Vec<_> = ["lion", "dk27", "bbtas"]
            .iter()
            .map(|name| {
                let addr = addr.clone();
                s.spawn(move || client::post_kiss(&addr, &kiss(name), "algorithms=ihybrid"))
            })
            .collect();
        // Give the accept loop a moment to admit them, then drain.
        std::thread::sleep(std::time::Duration::from_millis(100));
        handle.shutdown();
        threads
            .into_iter()
            .map(|t| t.join().unwrap().expect("admitted request answered"))
            .collect()
    });
    for resp in &responses {
        assert_bench_schema(resp);
    }
    handle.join();
    // The listener is gone: new connections are refused.
    assert!(client::post_kiss(&addr, &kiss("lion"), "").is_err());
}

#[test]
fn oversized_bodies_are_answered_413_not_reset() {
    // The server refuses the body after reading only the head; a staged
    // close (answer, half-close, discard the rest) lets the client read
    // the 413 instead of meeting a connection reset.
    let (handle, addr) = start(ServerConfig::default());
    let body = vec![b'#'; nova_serve::http::MAX_BODY_BYTES + 1024];
    for i in 0..20 {
        let resp = client::request(&addr, "POST", "/encode", None, &body)
            .unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(resp.status, 413, "request {i}: {}", resp.body);
        assert!(
            resp.header("x-nova-request-id").is_some(),
            "request {i} carries its id"
        );
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn closed_loop_requests_wait_on_no_timer() {
    // 50 sequential requests on one connection-per-request client: with
    // a blocking accept and parked workers, each costs well under a
    // millisecond. A 10 ms poll anywhere on the path costs ~500 ms.
    let (handle, addr) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let t = std::time::Instant::now();
    for _ in 0..50 {
        let resp = client::request(&addr, "GET", "/healthz", None, &[]).expect("healthz");
        assert_eq!(resp.status, 200);
    }
    let elapsed = t.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(250),
        "50 closed-loop requests took {elapsed:?}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn idle_servers_shut_down_promptly_on_both_binds() {
    use std::sync::mpsc;
    use std::time::Duration;
    // The wake-up connection must reach the blocked accept on a loopback
    // bind and on an unspecified one (connected through loopback), and
    // every parked worker must see the close. A join runs on a helper
    // thread so that a lost wake-up fails the test instead of hanging it.
    for i in 0..50 {
        let bind = ["127.0.0.1:0", "0.0.0.0:0"][i % 2];
        let (handle, _) = start(ServerConfig {
            addr: bind.into(),
            workers: 4,
            ..ServerConfig::default()
        });
        handle.shutdown();
        let (done, joined) = mpsc::channel();
        std::thread::spawn(move || {
            handle.join();
            let _ = done.send(());
        });
        joined
            .recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("cycle {i} ({bind}): join did not return within 1 s"));
    }
}
