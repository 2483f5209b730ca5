//! Lexical front end for the source-level analyses: comment and string
//! stripping that understands real Rust tokens.
//!
//! The original lint stripped per physical line (`split("//")`), which
//! misses two whole classes of input: content *after* a `*/` on a line
//! inside a block comment was treated as comment, and needles inside raw
//! string literals (`r#"…"#`) false-positived as code. This module walks
//! the source once with a small state machine — nested `/* */`, line
//! comments, plain/byte/raw strings with arbitrary `#` counts, char
//! literals vs. lifetimes — and produces each line's *code text* (string
//! and char contents blanked, comments removed). Line numbers are kept
//! exactly, so findings point at real source lines.

/// One physical source line after lexical classification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StrippedLine {
    /// The line's code with comments removed and literal contents blanked
    /// (quotes kept, so `"…"` stays a token boundary).
    pub code: String,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    LineComment,
    /// Nesting depth rides along (Rust block comments nest).
    BlockComment(u32),
    Str,
    /// Number of `#` marks that close the literal.
    RawStr(u32),
    Char,
}

/// True when `c` can end an identifier/expression, making a following `'`
/// a lifetime rather than a char literal (`impl<'a>`, `&'a str`).
fn ident_like(c: Option<char>) -> bool {
    matches!(c, Some(ch) if ch.is_alphanumeric() || ch == '_')
}

/// Splits source text into lines of code, comments and literal contents
/// stripped.
pub fn strip_source(src: &str) -> Vec<StrippedLine> {
    let mut out: Vec<StrippedLine> = Vec::new();
    let mut code = String::new();
    let mut mode = Mode::Code;
    let mut prev: Option<char> = None;
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Line comments die at end of line; everything else carries.
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            out.push(StrippedLine {
                code: std::mem::take(&mut code),
            });
            prev = None;
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    code.push(' ');
                    i += 2;
                } else if c == '"' {
                    mode = Mode::Str;
                    code.push('"');
                    prev = None;
                    i += 1;
                } else if (c == 'r' || c == 'b') && !ident_like(prev) {
                    // Possible raw (or byte/raw-byte) string start: consume
                    // the prefix letters, count hashes, expect a quote.
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let is_raw = c == 'r' || (c == 'b' && j > i + 1);
                    let mut hashes = 0u32;
                    while is_raw && chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if is_raw && chars.get(j) == Some(&'"') {
                        mode = Mode::RawStr(hashes);
                        code.push('"');
                        prev = None;
                        i = j + 1;
                    } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        mode = Mode::Str;
                        code.push('"');
                        prev = None;
                        i += 2;
                    } else {
                        code.push(c);
                        prev = Some(c);
                        i += 1;
                    }
                } else if c == '\'' && !ident_like(prev) {
                    // Char literal unless it reads as a lifetime
                    // (`'a` not followed by a closing quote).
                    let is_char = matches!(
                        (chars.get(i + 1), chars.get(i + 2)),
                        (Some('\\'), _) | (Some(_), Some('\''))
                    );
                    if is_char {
                        mode = Mode::Char;
                        code.push('\'');
                    } else {
                        code.push('\'');
                        prev = Some('\'');
                    }
                    i += 1;
                } else {
                    code.push(c);
                    prev = Some(c);
                    i += 1;
                }
            }
            Mode::LineComment => i += 1,
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    i += 2; // skip the escaped character (incl. \" and \\)
                } else if c == '"' {
                    mode = Mode::Code;
                    code.push('"');
                    prev = Some('"');
                    i += 1;
                } else {
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let closed = (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'));
                    if closed {
                        mode = Mode::Code;
                        code.push('"');
                        prev = Some('"');
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                } else {
                    i += 1;
                }
            }
            Mode::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    mode = Mode::Code;
                    code.push('\'');
                    prev = Some('\'');
                    i += 1;
                } else {
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || mode != Mode::Code {
        out.push(StrippedLine { code });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        strip_source(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn line_comments_are_dropped() {
        assert_eq!(codes("let x = 1; // trailing note\n")[0], "let x = 1; ");
    }

    #[test]
    fn block_comments_span_lines_and_code_resumes_after_close() {
        let src = "a();\n/* one\n   two */ b();\n";
        let lines = strip_source(src);
        assert_eq!(lines[0].code, "a();");
        assert_eq!(lines[1].code, " ", "comment-open leaves a space token");
        assert_eq!(lines[2].code, " b();", "code after */ must be kept");
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ still comment */ x();\n";
        assert_eq!(codes(src)[0], "  x();");
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_remain() {
        let src = "let s = \"Instant::now() // not code\"; y();\n";
        assert_eq!(codes(src)[0], "let s = \"\"; y();");
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let s = r#\"std::env::var(\"x\") \"# ; f();\n";
        assert_eq!(codes(src)[0], "let s = \"\" ; f();");
        let src2 = "let s = r##\"quote \"# inside\"## ; g();\n";
        assert_eq!(codes(src2)[0], "let s = \"\" ; g();");
    }

    #[test]
    fn byte_and_raw_byte_strings_are_blanked() {
        assert_eq!(codes("let b = b\"bytes\"; h();\n")[0], "let b = \"\"; h();");
        assert_eq!(
            codes("let b = br#\"raw\"#; h();\n")[0],
            "let b = \"\"; h();"
        );
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let src = "let s = \"a \\\" b\"; tail();\n";
        assert_eq!(codes(src)[0], "let s = \"\"; tail();");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\n";
        assert_eq!(codes(src)[0], src.trim_end_matches('\n'));
        // A real char literal still blanks its content.
        assert_eq!(codes("let c = '\"'; k();\n")[0], "let c = ''; k();");
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let src = "let s = \"line one\nline two\"; after();\nnext();\n";
        let lines = strip_source(src);
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].code, "let s = \"");
        assert_eq!(lines[1].code, "\"; after();");
        assert_eq!(lines[2].code, "next();");
    }

    #[test]
    fn identifier_r_is_not_a_raw_string_prefix() {
        // `for r in ...` / `var(x)` style: the `r` belongs to an ident.
        let src = "let var = r + 1;\n";
        assert_eq!(codes(src)[0], "let var = r + 1;");
        let src2 = "number(x)\n";
        assert_eq!(codes(src2)[0], "number(x)");
    }
}
