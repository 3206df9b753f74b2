// Fixture: a caller-only file (read as a bench would be). No rule runs on
// it; its non-test identifiers keep `pub fn`s alive.

use fix::dead_pub::imported_but_never_called;

fn main() {
    let total = fix::dead_pub::called_from_a_bench() + fix::dead_pub::called_and_allowed();
    println!("{total}");
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_not_a_caller() {
        assert_eq!(fix::dead_pub::only_calls_itself(0), 0);
        let _ = fix::dead_pub::test_helper();
    }
}
