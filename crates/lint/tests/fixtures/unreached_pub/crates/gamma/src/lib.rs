//! Methods that share a name across `impl` blocks: the blind spot of a
//! rule that matches names. `beta` calls `Left::run` and `Left::stats`,
//! and that one call reaches every method of the same name.

pub struct Left;

pub struct Right;

pub struct Third;

impl Left {
    pub fn run(&self) -> u32 {
        1
    }

    pub fn stats(&self) -> u32 {
        2
    }
}

impl Right {
    /// Called by nothing, reached through `Left::run`'s name.
    pub fn run(&self) -> u32 {
        3
    }

    pub fn stats(&self) -> u32 {
        4
    }

    /// `pub(crate)` is not API: not counted.
    pub(crate) fn hidden(&self) -> u32 {
        5
    }
}

impl Third {
    pub fn stats(&self) -> u32 {
        6
    }

    pub(crate) fn hidden(&self) -> u32 {
        7
    }

    /// Defined in one `impl` only: not counted.
    pub fn alone(&self) -> u32 {
        8
    }
}

/// A free function is not a method: not counted, though it shares
/// `run`'s name.
pub fn run() -> u32 {
    9
}

#[cfg(test)]
mod tests {
    pub struct Probe;

    impl Probe {
        /// Test code: not counted.
        pub fn run(&self) -> u32 {
            10
        }
    }
}
