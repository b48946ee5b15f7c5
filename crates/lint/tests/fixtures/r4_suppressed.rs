//! R4 fixture: a sanctioned real-thread site and an execution-default
//! environment read, each with an audited reason.

pub fn demo() {
    // lint: allow(R4, reason = "fixture: demonstration harness, feeds no pinned trace")
    std::thread::scope(|s| {
        s.spawn(|| {});
    });
}

pub fn lanes() -> usize {
    // lint: allow(R4, reason = "fixture: a lane count, bit-identical at every value")
    let lanes = std::env::var("LANES");
    lanes.map_or(1, |v| v.len())
}
