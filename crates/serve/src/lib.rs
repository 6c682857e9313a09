//! # nova-serve — the resident encoding service
//!
//! Every consumer of NOVA-style state assignment historically shells out to
//! a fresh process per machine, paying process start-up, arena construction
//! and scratch-pool warm-up for every single build. This crate keeps the
//! engine resident behind a std-only HTTP/1.1 server and puts a
//! content-addressed result cache in front of it: the engine's
//! byte-identical-replay guarantee (nova-chaos) means the same machine
//! under the same options is the same result, forever — so it is computed
//! once.
//!
//! * [`server`] — request lifecycle, admission control, graceful drain;
//!   start one with [`serve`]. The bounded queue is the only rule that
//!   refuses work: a full queue answers `503` + `Retry-After` at the door.
//!   Every request gets a deterministic id at admission (echoed as
//!   `X-Nova-Request-Id`). One always-on metrics registry counts every
//!   service event once and holds the latency histograms; `GET /metrics`
//!   (Prometheus text exposition via [`nova_trace::prom`]) and
//!   `GET /counters` (`nova-serve/1` JSON) render the same snapshot of it.
//!   An opt-in [`ServerConfig::trace_dir`] writes one `nova-trace/1` JSONL
//!   per `/encode` request for `nova trace-report`.
//! * [`cache`] — the LRU byte/entry-bounded result cache.
//! * [`wire`] — query-string options, decoded into the request's
//!   `nova_engine::EngineConfig`, and the cache-key construction over
//!   [`fsm::fingerprint`].
//! * [`http`] — the minimal hand-rolled HTTP layer (no dependencies;
//!   request heads are capped at 64 KiB, bodies at 1 MiB).
//! * [`client`] — the tiny client the `nova --remote` flag uses; it
//!   retries a `503` up to 3 tries, sleeping the server's `Retry-After`.
//! * [`shutdown`] — std-only SIGTERM/SIGINT flag for a process that wants
//!   signals to drain its server.
//!
//! ```no_run
//! use nova_serve::{serve, ServerConfig};
//!
//! let handle = serve(ServerConfig::default())?;
//! println!("listening on {}", handle.addr());
//! nova_serve::shutdown::install();
//! while !nova_serve::shutdown::signalled() {
//!     std::thread::sleep(std::time::Duration::from_millis(50));
//! }
//! handle.shutdown(); // stop accepting, drain what was admitted
//! handle.join();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod cache;
pub mod client;
pub mod http;
pub mod server;
pub mod shutdown;
pub mod wire;

pub use cache::{CacheConfig, CacheStats, ResultCache};
pub use client::{ClientError, RemoteResponse};
pub use server::{serve, ServerConfig, ServerHandle};
