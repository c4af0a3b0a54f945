//! A lightweight, lossy Rust tokenizer for lint rules.
//!
//! The rules in this crate are lexical: they look for banned identifiers
//! and count panic sites. For that to be sound the scanner must never
//! match inside string literals, character literals, or comments — a
//! doc comment mentioning `HashMap`, or an error message containing
//! `"panic!"`, must not trip a rule. This module reduces a `.rs` file to
//! per-line *code text* with all literal and comment contents blanked
//! out, while keeping track of two pieces of lint-relevant structure:
//!
//! - `#[cfg(test)]` module bodies (rules that only apply to production
//!   code skip those lines), and
//! - `// parqp-lint: allow(PQxxx)` escape-hatch comments, which suppress
//!   the named rules on their own line, or — when the comment stands
//!   alone — on the next line that contains code.
//!
//! It is *not* a parser: it does not build an AST, and pathological
//! macro soup can fool it. That trade-off is deliberate — the analyzer
//! must stay zero-dependency and fast, in the same spirit as the
//! hand-written manifest scanner it grew out of.

/// One source line after sanitization.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number in the original file.
    pub number: usize,
    /// The line's code with comment and literal *contents* removed.
    /// String literals collapse to `""`, char literals to `' '`.
    pub code: String,
    /// Whether the line sits inside a `#[cfg(test)]` module body (or is
    /// the attribute/header line of one).
    pub in_test: bool,
    /// Rule IDs suppressed on this line via `parqp-lint: allow(...)`.
    pub allows: Vec<String>,
}

impl Line {
    /// Whether `rule` is suppressed on this line.
    pub fn allows(&self, rule: &str) -> bool {
        self.allows.iter().any(|a| a == rule)
    }
}

/// A sanitized source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub lines: Vec<Line>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    Str,
    RawStr(usize),
    BlockComment(usize),
}

/// Sanitize `text` into lint-ready lines.
pub fn sanitize(text: &str) -> SourceFile {
    let mut lines: Vec<(String, String)> = Vec::new(); // (code, comments)
    let mut code = String::new();
    let mut comment = String::new();
    let mut state = State::Code;

    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            lines.push((std::mem::take(&mut code), std::mem::take(&mut comment)));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&b'/') {
                    // Line comment: capture its text for allow-annotation
                    // parsing, drop it from the code stream.
                    let end = text[i..].find('\n').map_or(bytes.len(), |n| i + n);
                    comment.push_str(&text[i..end]);
                    i = end;
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Str;
                    i += 1;
                } else if (c == 'r' || c == 'b') && is_raw_string_start(text, i) {
                    let hashes = text[i..]
                        .chars()
                        .skip_while(|&ch| ch == 'r' || ch == 'b')
                        .take_while(|&ch| ch == '#')
                        .count();
                    code.push('"');
                    state = State::RawStr(hashes);
                    // Skip past the prefix, hashes and opening quote.
                    i += text[i..].find('"').unwrap_or(0) + 1;
                } else if c == '\'' {
                    i = skip_char_or_lifetime(text, i, &mut code);
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Escaped char (incl. \" and \\). A backslash-newline
                    // (string line continuation) still ends a source
                    // line — skipping it silently would shift every
                    // later line number.
                    if bytes.get(i + 1) == Some(&b'\n') {
                        lines.push((std::mem::take(&mut code), std::mem::take(&mut comment)));
                    }
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                let closed = c == '"'
                    && text.len() >= i + 1 + hashes
                    && text[i + 1..i + 1 + hashes].bytes().all(|b| b == b'#');
                if closed {
                    code.push('"');
                    state = State::Code;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
            }
            State::BlockComment(depth) => {
                if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else if c == '*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push((code, comment));
    }

    assemble(lines)
}

/// Whether position `i` (at an `r` or `b`) starts a raw/byte string:
/// `r"`, `r#"`, `br"`, `b"`, `br#"` etc.
fn is_raw_string_start(text: &str, i: usize) -> bool {
    let rest = &text[i..];
    let prefix: String = rest.chars().take_while(|&c| c == 'r' || c == 'b').collect();
    if prefix.is_empty() || prefix.len() > 2 {
        return false;
    }
    // Must not be the tail of a longer identifier (e.g. `var"` can't occur,
    // but `for r in ..` must not trigger on `r` followed by `"` never mind).
    if i > 0 {
        let prev = text.as_bytes()[i - 1] as char;
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    rest[prefix.len()..].chars().find(|&c| c != '#') == Some('"')
}

/// Handle a `'` in code position: either a char literal (contents
/// dropped) or a lifetime (kept as code). Returns the new position.
fn skip_char_or_lifetime(text: &str, i: usize, code: &mut String) -> usize {
    let rest = &text[i + 1..];
    let mut chars = rest.chars();
    match chars.next() {
        Some('\\') => {
            // Escaped char literal: find the closing quote after the escape.
            code.push('\'');
            code.push(' ');
            code.push('\'');
            let mut j = i + 2; // past ' and backslash
            let b = text.as_bytes();
            if j < b.len() {
                j += 1; // the escaped character itself
            }
            // Unicode escapes: \u{...}
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            (j + 1).min(text.len())
        }
        Some(c) if chars.next() == Some('\'') => {
            // Plain char literal 'x'.
            let _ = c;
            code.push('\'');
            code.push(' ');
            code.push('\'');
            i + 2 + c.len_utf8()
        }
        _ => {
            // Lifetime (or stray quote): keep as code.
            code.push('\'');
            i + 1
        }
    }
}

/// Second pass: parse allow annotations, track `#[cfg(test)]` blocks.
fn assemble(raw: Vec<(String, String)>) -> SourceFile {
    let mut lines = Vec::with_capacity(raw.len());
    let mut pending_allows: Vec<String> = Vec::new();
    let mut depth: usize = 0;
    let mut pending_cfg_test = false;
    let mut test_until_depth: Option<usize> = None;

    for (idx, (code, comment)) in raw.into_iter().enumerate() {
        let mut allows = parse_allows(&comment);
        let standalone = code.trim().is_empty();
        if standalone && !allows.is_empty() {
            // A lone allow-comment applies to the next code line.
            pending_allows.append(&mut allows);
        } else if !standalone {
            allows.append(&mut pending_allows);
        }

        let mut in_test = test_until_depth.is_some();
        if test_until_depth.is_none() && code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            in_test = true;
        }
        // A line consuming a pending #[cfg(test)] (the `mod … {` header,
        // or a braceless item like `use …;`) is itself test code.
        let pending_at_line_start = pending_cfg_test;

        for ch in code.chars() {
            match ch {
                '{' => {
                    if pending_cfg_test {
                        test_until_depth = Some(depth);
                        pending_cfg_test = false;
                        in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if test_until_depth == Some(depth) {
                        test_until_depth = None;
                        in_test = true; // the closing brace itself is test code
                    }
                }
                // `#[cfg(test)] use …;` — attribute attached to a
                // non-block item; stop waiting for a brace.
                ';' if pending_cfg_test && depth == 0 => {
                    pending_cfg_test = false;
                }
                _ => {}
            }
        }
        if pending_at_line_start || pending_cfg_test {
            in_test = true; // attribute lines between #[cfg(test)] and `{`
        }

        lines.push(Line {
            number: idx + 1,
            code,
            in_test,
            allows,
        });
    }
    SourceFile { lines }
}

/// Extract rule IDs from a `parqp-lint: allow(PQ004, PQ103)` comment.
///
/// The annotation must be the *start* of the comment (`// parqp-lint: …`),
/// so that prose which merely mentions the syntax — like this crate's own
/// documentation — is not treated as an annotation.
fn parse_allows(comment: &str) -> Vec<String> {
    let body = comment
        .trim_start()
        .trim_start_matches('/')
        .trim_start_matches('!')
        .trim_start();
    let Some(rest) = body.strip_prefix("parqp-lint:") else {
        return Vec::new();
    };
    let Some(open) = rest.find("allow(") else {
        return Vec::new();
    };
    let Some(close) = rest[open..].find(')') else {
        return Vec::new();
    };
    rest[open + "allow(".len()..open + close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(text: &str) -> Vec<String> {
        sanitize(text).lines.into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn strips_line_comments() {
        let c = code_of("let x = 1; // trailing HashMap mention\n");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("let x = 1;"));
    }

    #[test]
    fn strips_doc_comments() {
        let c = code_of("/// Uses a HashMap internally.\nfn f() {}\n");
        assert!(!c[0].contains("HashMap"));
        assert_eq!(c[1].trim(), "fn f() {}");
    }

    #[test]
    fn strips_block_comments_nested() {
        let c = code_of("a /* x /* y */ HashMap */ b\n");
        assert_eq!(c[0].replace(' ', ""), "ab");
    }

    #[test]
    fn strips_string_contents() {
        let c = code_of("let s = \"std::collections::HashMap\";\n");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("let s = \"\";"));
    }

    #[test]
    fn strips_raw_strings() {
        let c = code_of("let s = r#\"panic! \"quoted\" HashMap\"#;\nlet t = 2;\n");
        assert!(!c[0].contains("HashMap"));
        assert_eq!(c[1].trim(), "let t = 2;");
    }

    #[test]
    fn string_escapes_do_not_terminate() {
        let c = code_of("let s = \"a\\\"HashMap\\\"b\"; let y = 1;\n");
        assert!(!c[0].contains("HashMap"));
        assert!(c[0].contains("let y = 1;"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let c = code_of("let c = '{'; fn f<'a>(x: &'a u32) {}\n");
        // The brace inside the char literal must not affect depth,
        // and the lifetime must survive as code.
        assert!(c[0].contains("'a"));
        assert!(!c[0].contains("'{'"));
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let f = sanitize("let s = \"line1\nline2 HashMap\nline3\";\nlet x = 1;\n");
        assert_eq!(f.lines.len(), 4);
        assert!(!f.lines[1].code.contains("HashMap"));
        assert_eq!(f.lines[3].code.trim(), "let x = 1;");
        assert_eq!(f.lines[3].number, 4);
    }

    #[test]
    fn cfg_test_module_is_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod2() {}\n";
        let f = sanitize(src);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_use_item_does_not_swallow_rest_of_file() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() {}\n";
        let f = sanitize(src);
        assert!(f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn allow_same_line() {
        let f = sanitize("use x::HashMap; // parqp-lint: allow(PQ004)\n");
        assert!(f.lines[0].allows("PQ004"));
        assert!(!f.lines[0].allows("PQ103"));
    }

    #[test]
    fn allow_standalone_applies_to_next_line() {
        let f = sanitize("// parqp-lint: allow(PQ004, PQ109)\nuse x::HashMap;\nuse y::Z;\n");
        assert!(f.lines[0].code.trim().is_empty());
        assert!(f.lines[1].allows("PQ004"));
        assert!(f.lines[1].allows("PQ109"));
        assert!(!f.lines[2].allows("PQ004"));
    }

    #[test]
    fn braces_in_strings_do_not_affect_test_tracking() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn t() {}\n}\nfn prod() {}\n";
        let f = sanitize(src);
        assert!(f.lines[3].in_test);
        assert!(!f.lines[5].in_test);
    }
}
