//! A library file with a `#[cfg(test)]` module.

/// Called only from the test module below: fires.
pub fn only_tests_call() -> u32 {
    3
}

/// Re-exported by `lib.rs` and named nowhere else: fires.
pub fn only_reexported() -> u32 {
    4
}

/// Waived for this file's test module, which calls it: quiet.
// inc-lint: allow(unreached-pub): crates/alpha/src/tested.rs' tests call it
pub fn own_tests_call() -> u32 {
    5
}

/// Waived for this file, where only its own declaration names it: stale.
// inc-lint: allow(unreached-pub): crates/alpha/src/tested.rs calls it
pub fn own_file_only() -> u32 {
    6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inside `#[cfg(test)]`: never fires.
    pub fn test_helper() -> u32 {
        only_tests_call()
    }

    #[test]
    fn calls() {
        assert_eq!(test_helper(), 3);
        assert_eq!(own_tests_call(), 5);
    }
}
