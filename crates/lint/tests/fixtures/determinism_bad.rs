//! Fixture: seeded determinism violations (rule PQ004). The type and
//! method bans (`HashMap`, `RandomState`, `Instant::now`, …) live in
//! the workspace `clippy.toml`; a module path is the lexical rule's.

pub fn race() {
    std::thread::spawn(|| {});
}

pub fn scoped(x: &mut u64) {
    std::thread::scope(|s| {
        s.spawn(|| *x += 1);
    });
}
