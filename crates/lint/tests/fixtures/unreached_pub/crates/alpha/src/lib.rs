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

// inc-lint: allow(unreached-pub): the fixture's reasoned waiver
pub fn waived() {}

// inc-lint: allow(unreached-pub)
pub fn reasonless() {}

// inc-lint: allow(unreached-pub): stale, `beta` calls it
pub fn also_called_from_beta() {}
