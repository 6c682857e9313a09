//! Process-level graceful-shutdown signal, std-only.
//!
//! `std` exposes no signal API, but on Unix the C runtime is already linked
//! into every binary, so the classic `signal(2)` registration is available
//! through a one-line FFI declaration — no new dependency. The handler does
//! the only async-signal-safe thing there is to do: it stores into a static
//! atomic. The server never reads it: a library server stops only through
//! `ServerHandle::shutdown`. The process that installed the handler watches
//! [`signalled`] and calls the handle, as `nova serve`'s main thread does.
//!
//! Repeated SIGTERM/SIGINT simply re-store `true` — an impatient second
//! `kill` stays idempotent instead of dropping in-flight work; a user who
//! wants an immediate stop can still SIGKILL.

use std::sync::atomic::{AtomicBool, Ordering};

static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM or SIGINT has been received since [`install`].
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::Relaxed)
}

/// Marks the process-wide shutdown flag (what the signal handler does),
/// as if SIGTERM had arrived. It stops no server by itself: it is seen by
/// whatever watches [`signalled`].
pub fn request() {
    SIGNALLED.store(true, Ordering::Relaxed);
}

/// Installs SIGTERM and SIGINT handlers that set the shutdown flag. A
/// no-op on non-Unix targets (the programmatic [`request`] path and
/// `ServerHandle::shutdown` still work everywhere).
pub fn install() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal` is the C runtime's registration call; the
        // handler only performs an atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sets_the_flag() {
        // `install` + a real signal is exercised end-to-end by the CLI
        // tests and the serve-smoke CI job; in-process we only check the
        // programmatic path (the flag is global, so no reset here).
        install();
        request();
        assert!(signalled());
    }
}
