//! Another crate's non-test code: the fixture's root.

fn main() {
    alpha::also_called_from_beta();
    println!("{}", alpha::called_from_beta());
}
