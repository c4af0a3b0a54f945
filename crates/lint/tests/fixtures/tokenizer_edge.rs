//! Tokenizer regression fixture: raw strings, nested block comments,
//! attribute lines, and escaped-newline string continuations must not
//! hide real code or shift line numbers.

#[rustfmt::skip]
pub fn attributed() -> u64 {
    let banned_in_raw = r#"std::thread::yield_now() // "quoted" not code"#;
    let hashes = br##"nested "#" quote"##;
    /* block /* nested block */ still a comment: std::thread::yield_now() */
    let cont = "line one \
std::thread continues";
    let real = std::thread::current();
    real.name().map_or(0, str::len) as u64
}
