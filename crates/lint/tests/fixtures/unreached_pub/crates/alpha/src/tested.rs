//! A library file with a `#[cfg(test)]` module.

/// Called only from the test module below: fires.
pub fn only_tests_call() -> u32 {
    3
}

/// Re-exported by `lib.rs` and named nowhere else: fires.
pub fn only_reexported() -> u32 {
    4
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
    }
}
