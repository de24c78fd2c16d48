//! Fixture: process-wide state the no-singleton lint must flag, beside
//! the per-thread, test-only and plain-data statics it must pass.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static X: OnceLock<u32> = OnceLock::new();

/// A process-wide counter.
pub static COUNT: AtomicU64 = AtomicU64::new(0);

static TABLE: [u8; 4] = [1, 2, 3, 4];

thread_local! {
    static SPARE: Cell<u32> = const { Cell::new(0) };
}

/// Reads every static once.
pub fn touch() -> &'static str {
    static NAMES: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    let _ = (X.get(), COUNT.load(Ordering::Relaxed), TABLE[0], NAMES.lock());
    SPARE.with(|s| s.set(1));
    "touched"
}

#[cfg(test)]
mod tests {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
