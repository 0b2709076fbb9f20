//! Another crate's non-test code: the fixture's root.

fn main() {
    alpha::also_called_from_beta();
    println!("{}", alpha::called_from_beta());
    let left = gamma::Left;
    let _ = (gamma::Right, gamma::Third.alone(), gamma::run());
    println!("{} {}", left.run(), left.stats());
}
