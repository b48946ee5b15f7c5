//! R4 fixture: wall-clock reads, ad-hoc threads and an environment read in
//! library code.
use std::time::{Instant, SystemTime};

pub fn stamp() -> u128 {
    let t0 = Instant::now();
    let _ = SystemTime::now();
    std::thread::spawn(|| {});
    std::thread::sleep(std::time::Duration::from_millis(1));
    t0.elapsed().as_nanos()
}

pub fn scenario() -> bool {
    std::env::var("SCENARIO").is_ok()
}
