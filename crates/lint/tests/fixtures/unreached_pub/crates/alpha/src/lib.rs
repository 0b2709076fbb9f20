//! The library half of the `unreached-pub` fixture.

pub use crate::tested::only_reexported;

pub mod tested;

/// Called from `beta`'s non-test code: quiet.
pub fn called_from_beta() -> u32 {
    1
}

/// Named only inside its own `impl` blocks: fires.
pub struct OnlySelf {
    n: u32,
}

impl OnlySelf {
    pub fn make() -> OnlySelf {
        OnlySelf { n: 0 }
    }
}

impl Default for OnlySelf {
    fn default() -> OnlySelf {
        OnlySelf::make()
    }
}

/// `pub(crate)` is not API: never fires.
pub(crate) fn crate_only() -> u32 {
    2
}

// inc-lint: allow(unreached-pub): tests/callers.rs calls it
pub fn waived() {}

// inc-lint: allow(unreached-pub)
pub fn reasonless() {}

// inc-lint: allow(unreached-pub): stale, `beta` calls it
pub fn also_called_from_beta() {}

// inc-lint: allow(unreached-pub): tests/gone.rs calls it
pub fn caller_missing() {}

// inc-lint: allow(unreached-pub): tests/callers.rs reads it in the invariants
pub fn caller_in_comments() {}

// inc-lint: allow(unreached-pub): a unit test calls it
pub fn caller_unnamed() {}
