//! The fixture's integration tests: the caller waivers name.

#[test]
fn calls_the_waived_item() {
    alpha::waived();
    // caller_in_comments() is named here only in this comment
    let _ = "and in this string: caller_in_comments";
}
