// Fixture: library `pub fn`s need a non-test caller somewhere. The
// caller-only file `dead_pub_caller.rs` is read beside this one.

pub fn never_called() -> u32 { //~ dead-pub
    1
}

// Called only from the caller-only (bench/example/perfbench) file.
pub fn called_from_a_bench() -> u32 {
    2
}

// Named only in a `use` declaration of the caller file.
pub fn imported_but_never_called() -> u32 { //~ dead-pub
    3
}

// Its own recursive call does not count as a caller.
pub fn only_calls_itself(n: u32) -> u32 { //~ dead-pub
    if n == 0 { 0 } else { only_calls_itself(n - 1) }
}

// Named only as a field (declared, initialized, read): no caller. A
// method call through `.` still counts.
pub struct Gauge {
    level: u32,
}

pub fn level(g: &Gauge) -> u32 { //~ dead-pub
    g.level
}

pub fn is_empty(g: &Gauge) -> bool {
    g.level == 0
}

fn drained(g: &Gauge) -> Option<Gauge> {
    (!g.is_empty()).then(|| Gauge { level: g.level - 1 })
}

// Not API: restricted visibility is ignored.
pub(crate) fn crate_internal() -> u32 {
    4
}

#[cfg(test)]
pub fn test_helper() -> u32 {
    5
}

#[cfg(test)]
mod tests {
    // Test code is not a caller.
    #[test]
    fn calls_never_called() {
        assert_eq!(super::never_called(), 1);
    }
}

// ctlint::allow(dead-pub): fixture — documented client contract
pub fn documented_contract() -> u32 {
    6
}

// ctlint::allow(dead-pub): fixture — this fn has a caller //~ unused-allow
pub fn called_and_allowed() -> u32 {
    7
}
