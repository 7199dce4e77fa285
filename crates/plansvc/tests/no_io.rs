//! The sans-io lint: the planning core must not touch any transport or
//! clock, nor keep process-global state.  Enforced textually over the
//! crate's sources — if an I/O import or a global cell sneaks into the
//! engine, this test names the file and line.

const SOURCES: &[(&str, &str)] = &[
    ("src/lib.rs", include_str!("../src/lib.rs")),
    ("src/engine.rs", include_str!("../src/engine.rs")),
    ("src/cache.rs", include_str!("../src/cache.rs")),
    ("src/plan.rs", include_str!("../src/plan.rs")),
    ("src/request.rs", include_str!("../src/request.rs")),
];

/// Forbidden module paths, types and declarations: transports,
/// filesystems, clocks, process control, environment access, and
/// process-global state (a counter or cell shared by every engine in the
/// process would make a response depend on more than its own engine's
/// input history).  The engine may compute, hold its own state, and
/// format strings — nothing else.
const FORBIDDEN: &[&str] = &[
    "std::io",
    "std::net",
    "std::fs",
    "std::time",
    "std::process",
    "std::env",
    "Instant::",
    "SystemTime",
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "counter!",
    "static mut",
    "thread_local!",
    "std::sync::atomic",
    "OnceLock",
];

#[test]
fn the_core_has_zero_io_imports() {
    for (file, text) in SOURCES {
        for (lineno, line) in text.lines().enumerate() {
            for needle in FORBIDDEN {
                assert!(
                    !line.contains(needle),
                    "{file}:{} mentions '{needle}': {line}",
                    lineno + 1
                );
            }
        }
    }
}

#[test]
fn the_lint_actually_scans_the_engine() {
    // Guard against the include paths rotting: the engine source must be
    // non-trivial and contain the state machine's entry point.
    let engine = SOURCES
        .iter()
        .find(|(f, _)| *f == "src/engine.rs")
        .map(|(_, t)| *t)
        .unwrap();
    assert!(engine.contains("pub fn handle"));
    assert!(engine.len() > 1000);
}
