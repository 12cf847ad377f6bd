//! Golden-file UI tests for the diagnostics engine.
//!
//! Every `tests/ui/*.dbl` program is run through the full front end
//! (`compile_multi`; lints are appended when the program is clean) and
//! its rendered diagnostics are compared byte-for-byte against the
//! sibling `*.stderr` golden file. The `to_json` document is compared
//! against `*.json` and checked for well-formedness with a small
//! hand-rolled JSON reader (the workspace has no serde).
//!
//! To regenerate the goldens after an intentional rendering change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test diagnostics_ui
//! ```
//!
//! then review the diff like any other code change.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use diablo_diag::{render_all, to_json, Diagnostics};

fn ui_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/ui")
}

/// Runs the complete front end the way `diabloc check` + `diabloc lint`
/// do: parse, typecheck, restriction analysis; when all of that passes,
/// the lint passes run over the typed and compiled program.
fn diagnose(source: &str) -> Diagnostics {
    let mut diags = Diagnostics::new();
    if let Some((tp, compiled)) = diablo_core::compile_multi(source, &mut diags) {
        diags.extend(diablo_core::lint_program(&tp, &compiled));
    }
    diags
}

fn ui_cases() -> Vec<PathBuf> {
    let mut cases: Vec<PathBuf> = fs::read_dir(ui_dir())
        .expect("tests/ui directory")
        .map(|e| e.expect("read tests/ui entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "dbl"))
        .collect();
    cases.sort();
    assert!(
        cases.len() >= 16,
        "expected the full UI corpus, found {} programs",
        cases.len()
    );
    cases
}

fn compare_or_update(path: &Path, actual: &str, update: bool) {
    if update {
        fs::write(path, actual).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; run `UPDATE_GOLDEN=1 cargo test --test diagnostics_ui`",
            path.display()
        )
    });
    assert_eq!(
        actual,
        golden,
        "rendered diagnostics changed for {}; if intentional, regenerate with \
         `UPDATE_GOLDEN=1 cargo test --test diagnostics_ui` and review the diff",
        path.display()
    );
}

/// The corpus, rendered and compared against the goldens — both the
/// human caret rendering and the machine `--json` document.
#[test]
fn ui_corpus_matches_goldens() {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    for case in ui_cases() {
        let source = fs::read_to_string(&case).expect("read .dbl");
        let name = case.file_name().unwrap().to_str().unwrap().to_string();
        let diags = diagnose(&source);

        let rendered = render_all(&diags, &source, &name);
        compare_or_update(&case.with_extension("stderr"), &rendered, update);

        let json = to_json(&diags);
        assert_parseable_json(&json, &name);
        compare_or_update(&case.with_extension("json"), &json, update);
    }
}

/// Every stable code in the table has at least one UI case that
/// actually emits it, so a regression that silences a pass cannot slip
/// through with all goldens still matching empty output.
#[test]
fn every_diagnostic_code_is_exercised() {
    let mut seen = BTreeSet::new();
    for case in ui_cases() {
        let source = fs::read_to_string(&case).expect("read .dbl");
        for d in diagnose(&source).iter() {
            seen.insert(d.code);
        }
    }
    let expected = [
        "D001", "D002", "D003", "D010", "D011", "D012", "D013", "D014", "D015", "D016", "D020",
        "D021", "D022", "D023", "D024", "D025",
    ];
    for code in expected {
        assert!(seen.contains(code), "no UI case emits {code}");
    }
}

/// The acceptance-criterion program: three independent faults, all
/// reported in a single front-end run with stable codes and real spans.
#[test]
fn multi_error_program_reports_every_fault() {
    let source = fs::read_to_string(ui_dir().join("multi_error.dbl")).expect("read");
    let diags = diagnose(&source);
    assert!(
        diags.error_count() >= 3,
        "expected at least 3 errors, got {}:\n{}",
        diags.error_count(),
        render_all(&diags, &source, "multi_error.dbl")
    );
    for d in diags.iter() {
        assert!(
            !d.span.is_synth(),
            "{}: every fault must carry a span",
            d.code
        );
    }
}

/// The JSON form is stable under re-rendering and carries one entry per
/// diagnostic, in emission order.
#[test]
fn json_is_deterministic_and_complete() {
    let source = fs::read_to_string(ui_dir().join("multi_error.dbl")).expect("read");
    let diags = diagnose(&source);
    let a = to_json(&diags);
    let b = to_json(&diags);
    assert_eq!(a, b, "to_json must be deterministic");
    assert_eq!(
        a.matches("\"code\":").count(),
        diags.len(),
        "one JSON entry per diagnostic"
    );
}

// --- minimal JSON reader -------------------------------------------------
//
// Enough of RFC 8259 to prove our hand-rolled encoder produces a
// well-formed document: objects, arrays, strings with escapes, numbers.

fn assert_parseable_json(text: &str, who: &str) {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)
        .unwrap_or_else(|e| panic!("{who}: malformed JSON at byte {pos}: {e}"));
    skip_ws(bytes, &mut pos);
    assert_eq!(
        pos,
        bytes.len(),
        "{who}: trailing garbage after JSON document"
    );
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(b't') => parse_literal(b, pos, "true"),
        Some(b'f') => parse_literal(b, pos, "false"),
        Some(b'n') => parse_literal(b, pos, "null"),
        other => Err(format!("unexpected {other:?}")),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err("expected ':' in object".into());
        }
        *pos += 1;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // [
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err("expected string".into());
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                let esc = b.get(*pos + 1).ok_or("dangling escape")?;
                match esc {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => *pos += 2,
                    b'u' => {
                        for i in 2..6 {
                            if !b.get(*pos + i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err("bad \\u escape".into());
                            }
                        }
                        *pos += 6;
                    }
                    other => return Err(format!("bad escape \\{}", *other as char)),
                }
            }
            0x00..=0x1f => return Err("raw control character in string".into()),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    if *pos == start {
        return Err("expected number".into());
    }
    Ok(())
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}`"))
    }
}
