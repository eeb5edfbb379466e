//! The lint rules and the per-file rule driver.
//!
//! Every rule is a pure function over a [`ScannedFile`]; suppression is
//! handled uniformly here: an inline `// lint: allow(<rule>, <reason>)`
//! on the flagged line (or the line directly above it) silences one
//! finding, and entries in the checked-in `lint.toml` allowlist silence
//! findings by path and optional line substring. Both demand a reason, so
//! every exception stays visible in review.

use crate::allowlist::Allowlist;
use crate::scan::{scan, ScannedFile};

/// Library crates whose non-test code must be panic-free: these sit on
/// the record/decode/detect hot paths that process attacker-influenced
/// traffic, where an abort is a DoS primitive (PAPER.md §1, §5).
pub const PANIC_FREE_CRATES: [&str; 7] = [
    "crates/flow/src",
    "crates/sketch/src",
    "crates/hashing/src",
    "crates/forecast/src",
    "crates/hifind/src",
    "crates/collect/src",
    "crates/obsv/src",
];

/// Boundary files that parse raw wire bytes: every integer conversion
/// must be checked, so no bare `as` casts. The poll engine assembles
/// frames straight off attacker-reachable sockets, and the tier node —
/// the shared loop and both of its sinks — counts those frames and
/// re-encodes what it combined, so they live inside this boundary too.
pub const CAST_CHECKED_FILES: [&str; 9] = [
    "crates/collect/src/wire.rs",
    "crates/collect/src/codec.rs",
    "crates/collect/src/codec_v2.rs",
    "crates/collect/src/checkpoint.rs",
    "crates/collect/src/engine.rs",
    "crates/collect/src/node.rs",
    "crates/collect/src/collector.rs",
    "crates/collect/src/aggregator.rs",
    "crates/obsv/src/history.rs",
];

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// Rule id, e.g. `hot-path-panic`.
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        )
    }
}

/// Rule ids, in report order. The first six are per-file token rules;
/// the last four are cross-file workspace passes (see [`crate::passes`]).
pub const RULE_IDS: [&str; 10] = [
    "hot-path-panic",
    "truncating-cast",
    "atomics-audit",
    "bounded-channels",
    "joined-threads",
    "lint-directive",
    "lock-order",
    "poll-loop-purity",
    "overflow-audit",
    "unsafe-perimeter",
];

/// A per-file rule body.
pub(crate) type RuleFn = fn(&str, &ScannedFile, &mut Vec<Violation>);

/// The per-file rules, in report order, for the workspace driver (which
/// scans each file once and times each rule individually).
pub(crate) const FILE_RULES: [(&str, RuleFn); 6] = [
    ("hot-path-panic", hot_path_panic),
    ("truncating-cast", truncating_cast),
    ("atomics-audit", atomics_audit),
    ("bounded-channels", bounded_channels),
    ("joined-threads", joined_threads),
    ("lint-directive", malformed_directives),
];

/// Exercise code (integration tests, benches, examples) is exempt from
/// the per-file rules: it is not attacker-reachable library code.
pub(crate) fn exercise_path(rel_path: &str) -> bool {
    ["/tests/", "/benches/", "/examples/"]
        .iter()
        .any(|e| rel_path.contains(e))
}

/// Lints one file. `rel_path` uses forward slashes relative to the
/// workspace root (e.g. `crates/collect/src/wire.rs`).
pub fn lint_source(rel_path: &str, source: &str, allowlist: &Allowlist) -> Vec<Violation> {
    if !rel_path.starts_with("crates/") || !rel_path.ends_with(".rs") {
        return Vec::new();
    }
    // Integration tests, benches, and examples are exercise code, not
    // attacker-reachable library paths.
    if exercise_path(rel_path) {
        return Vec::new();
    }
    let file = scan(source);
    let mut found = Vec::new();
    for (_, rule) in FILE_RULES {
        rule(rel_path, &file, &mut found);
    }
    found.retain(|v| !suppressed(v, &file, allowlist));
    found
}

/// True when the finding carries a valid inline or allowlist suppression.
pub(crate) fn suppressed(v: &Violation, file: &ScannedFile, allowlist: &Allowlist) -> bool {
    if v.rule == "lint-directive" {
        return allowlist.permits(v); // malformed directives can only be allowlisted
    }
    let same = file.lines.get(v.line - 1).map(|l| l.comment.as_str());
    let above = v
        .line
        .checked_sub(2)
        .and_then(|i| file.lines.get(i))
        .map(|l| l.comment.as_str());
    for comment in [same, above].into_iter().flatten() {
        if let Some(Ok(directive)) = parse_allow_directive(comment) {
            if directive.rule == v.rule && !directive.reason.is_empty() {
                return true;
            }
        }
    }
    allowlist.permits(v)
}

/// A parsed `// lint: allow(rule, reason)` directive.
struct AllowDirective {
    rule: String,
    reason: String,
}

/// Returns `None` when `comment` holds no directive, `Some(Err)` when it
/// holds one that does not parse (missing reason, unknown shape).
///
/// A directive must be the comment's content (`// lint: allow(…)`), not
/// a mention of the syntax mid-prose — only comment markers and
/// whitespace may precede `lint:`.
fn parse_allow_directive(comment: &str) -> Option<Result<AllowDirective, String>> {
    let at = comment.find("lint: allow(")?;
    if !comment[..at]
        .chars()
        .all(|c| c == '/' || c == '!' || c.is_whitespace())
    {
        return None;
    }
    let rest = &comment[at + "lint: allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed `lint: allow(` directive".to_string()));
    };
    let inner = &rest[..close];
    let Some((rule, reason)) = inner.split_once(',') else {
        return Some(Err(format!(
            "`lint: allow({inner})` needs a reason: `lint: allow(rule, why this is sound)`"
        )));
    };
    let (rule, reason) = (rule.trim(), reason.trim());
    if !RULE_IDS.contains(&rule) {
        return Some(Err(format!(
            "unknown lint rule `{rule}` in allow directive"
        )));
    }
    if reason.is_empty() {
        return Some(Err(format!("`lint: allow({rule}, …)` has an empty reason")));
    }
    Some(Ok(AllowDirective {
        rule: rule.to_string(),
        reason: reason.to_string(),
    }))
}

fn in_scope(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel_path.starts_with(p))
}

fn is_bin(rel_path: &str) -> bool {
    rel_path.contains("/src/bin/")
}

/// Rule `hot-path-panic`: no `unwrap`/`expect`/`panic!`/`unreachable!`/
/// `todo!`/`unimplemented!` in non-test library code of the six hot-path
/// crates. `assert!`-family macros are allowed: they express invariants,
/// are greppable, and the paper-facing ones are documented.
fn hot_path_panic(rel_path: &str, file: &ScannedFile, out: &mut Vec<Violation>) {
    if !in_scope(rel_path, &PANIC_FREE_CRATES) || is_bin(rel_path) {
        return;
    }
    for line in file.lines.iter().filter(|l| !l.in_test) {
        for (needle, what, fix) in [
            (
                ".unwrap()",
                "`unwrap()`",
                "return the crate's typed error or restructure so the value is proven present",
            ),
            (
                ".expect(",
                "`expect()`",
                "return the crate's typed error or restructure so the value is proven present",
            ),
            (
                "::unwrap",
                "`unwrap` as a function path",
                "map through a typed error instead of `Option::unwrap`/`Result::unwrap`",
            ),
            ("panic!", "`panic!`", "return a typed error"),
            ("unreachable!", "`unreachable!`", "return a typed error"),
            ("todo!", "`todo!`", "implement or return a typed error"),
            (
                "unimplemented!",
                "`unimplemented!`",
                "implement or return a typed error",
            ),
        ] {
            if match_panic_token(&line.code, needle) {
                out.push(Violation {
                    path: rel_path.to_string(),
                    line: line.number,
                    rule: "hot-path-panic",
                    message: format!(
                        "{what} in hot-path library code can abort on attacker-influenced input; {fix}"
                    ),
                    snippet: line.raw.trim().to_string(),
                });
                break; // one finding per line is enough
            }
        }
    }
}

/// Token-ish match: `needle` must appear with no identifier character
/// continuing it (so `.expect(` never matches `.expect_err(`, and
/// `::unwrap` never matches `::unwrap_or`).
fn match_panic_token(code: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(at) = code[from..].find(needle) {
        let end = from + at + needle.len();
        let boundary = if needle.ends_with(['(', ')']) {
            true
        } else {
            !code[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        };
        if boundary {
            return true;
        }
        from = end;
    }
    false
}

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Rule `truncating-cast`: no bare `as <integer type>` in the wire/codec
/// boundary files — a silently truncating cast on a length or counter
/// derived from attacker bytes is exactly the bug class CRC checks cannot
/// catch. Use `try_from` (mapped to the typed decode errors) or the
/// checked helpers already in those files.
fn truncating_cast(rel_path: &str, file: &ScannedFile, out: &mut Vec<Violation>) {
    if !CAST_CHECKED_FILES.contains(&rel_path) {
        return;
    }
    for line in file.lines.iter().filter(|l| !l.in_test) {
        if let Some(ty) = find_int_cast(&line.code) {
            out.push(Violation {
                path: rel_path.to_string(),
                line: line.number,
                rule: "truncating-cast",
                message: format!(
                    "bare `as {ty}` in wire-boundary code can silently truncate attacker-controlled \
                     values; use `{ty}::try_from` mapped to a typed decode error (or a checked helper)"
                ),
                snippet: line.raw.trim().to_string(),
            });
        }
    }
}

/// Finds `as <int-type>` with `as` as a standalone word; returns the type.
fn find_int_cast(code: &str) -> Option<&'static str> {
    let chars: Vec<char> = code.chars().collect();
    let mut i = 0;
    while i + 1 < chars.len() {
        if chars[i] == 'a'
            && chars[i + 1] == 's'
            && !prev_ident(&chars, i)
            && !next_ident(&chars, i + 2)
        {
            let mut j = i + 2;
            while chars.get(j).is_some_and(|c| c.is_whitespace()) {
                j += 1;
            }
            let word: String = chars[j..]
                .iter()
                .take_while(|c| c.is_alphanumeric() || **c == '_')
                .collect();
            if let Some(ty) = INT_TYPES.iter().find(|t| **t == word) {
                return Some(ty);
            }
            i = j.max(i + 2);
        } else {
            i += 1;
        }
    }
    None
}

fn prev_ident(chars: &[char], i: usize) -> bool {
    i.checked_sub(1)
        .and_then(|p| chars.get(p))
        .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

fn next_ident(chars: &[char], i: usize) -> bool {
    chars
        .get(i)
        .is_some_and(|c| c.is_alphanumeric() || *c == '_')
}

/// Rule `atomics-audit`: every `Ordering::Relaxed` in non-test code must
/// carry an inline `// relaxed-ok: <reason>` on the same line or the line
/// above. Relaxed is usually right for monotonic telemetry counters, but
/// each use must say *why* no ordering is needed, so a future reader can
/// tell an audited site from an accidental one.
fn atomics_audit(rel_path: &str, file: &ScannedFile, out: &mut Vec<Violation>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !line.code.contains("Ordering::Relaxed") {
            continue;
        }
        let above = idx
            .checked_sub(1)
            .and_then(|i| file.lines.get(i))
            .map_or("", |l| l.comment.as_str());
        let justified = [line.comment.as_str(), above]
            .iter()
            .any(|c| c.contains("relaxed-ok:"));
        if !justified {
            out.push(Violation {
                path: rel_path.to_string(),
                line: line.number,
                rule: "atomics-audit",
                message: "`Ordering::Relaxed` without a `// relaxed-ok: <reason>` justification; \
                          say why no synchronization is needed, or use a stronger ordering"
                    .to_string(),
                snippet: line.raw.trim().to_string(),
            });
        }
    }
}

/// Rule `bounded-channels`: the collector and the observability plane
/// absorb backpressure in TCP, never in memory — an unbounded
/// `mpsc::channel` between reader and aligner (or acceptor and HTTP
/// worker) would let one fast peer queue unbounded work and undo the
/// DoS-resilience story. Use `mpsc::sync_channel` with a small bound.
fn bounded_channels(rel_path: &str, file: &ScannedFile, out: &mut Vec<Violation>) {
    if !rel_path.starts_with("crates/collect/src") && !rel_path.starts_with("crates/obsv/src") {
        return;
    }
    for line in file.lines.iter().filter(|l| !l.in_test) {
        if line.code.contains("mpsc::channel(") || line.code.contains("mpsc::channel::<") {
            out.push(Violation {
                path: rel_path.to_string(),
                line: line.number,
                rule: "bounded-channels",
                message: "unbounded `mpsc::channel` in the collector turns a fast peer into a \
                          memory-exhaustion DoS; use `mpsc::sync_channel` with a small bound"
                    .to_string(),
                snippet: line.raw.trim().to_string(),
            });
        }
    }
}

/// Rule `joined-threads`: a `thread::spawn` whose `JoinHandle` is
/// discarded (`spawn(..);`, `let _ = spawn(..);`, `drop(spawn(..))`) is a
/// thread the shutdown path can neither join nor observe panicking. Bind
/// the handle and join it (or register it with the owner's shutdown set).
fn joined_threads(rel_path: &str, file: &ScannedFile, out: &mut Vec<Violation>) {
    if !in_scope(rel_path, &PANIC_FREE_CRATES) {
        return;
    }
    let text = file.code_text();
    let chars: Vec<char> = text.chars().collect();
    let needle: Vec<char> = "thread::spawn".chars().collect();
    let mut at = 0usize;
    while at + needle.len() <= chars.len() {
        if chars[at..at + needle.len()] != needle[..] {
            at += 1;
            continue;
        }
        let line = chars[..at].iter().filter(|c| **c == '\n').count() + 1;
        if handle_discarded(&chars, at) {
            if let Some(l) = file.lines.get(line - 1) {
                if !l.in_test {
                    out.push(Violation {
                        path: rel_path.to_string(),
                        line,
                        rule: "joined-threads",
                        message: "`thread::spawn` handle is discarded; bind the JoinHandle and \
                                  join it on the shutdown path (a detached thread can outlive \
                                  shutdown and hide panics)"
                            .to_string(),
                        snippet: l.raw.trim().to_string(),
                    });
                }
            }
        }
        at += needle.len();
    }
}

/// Decides whether the spawn expression starting at `at` (char index of
/// `thread::spawn`) has its value discarded.
fn handle_discarded(bytes: &[char], at: usize) -> bool {
    // Find the opening paren of the call, then its match.
    let mut i = at;
    while bytes.get(i).is_some_and(|c| *c != '(') {
        i += 1;
    }
    let mut depth = 0i64;
    while let Some(&c) = bytes.get(i) {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    // The statement prefix before the call, up to the nearest `;`/brace.
    let mut k = at;
    while k > 0 {
        let c = bytes[k - 1];
        if c == ';' || c == '{' || c == '}' {
            break;
        }
        k -= 1;
    }
    let prefix: String = bytes[k..at].iter().collect();
    let prefix = prefix.trim();
    // A `std::` path prefix belongs to the spawn expression itself.
    let prefix = prefix.strip_suffix("std::").unwrap_or(prefix).trim();
    if prefix.ends_with("drop(") {
        return true; // `drop(thread::spawn(..))`
    }
    // What follows the call?
    let mut j = i + 1;
    while bytes.get(j).is_some_and(|c| c.is_whitespace()) {
        j += 1;
    }
    if bytes.get(j) != Some(&';') {
        // Chained (`.join()`), passed as an argument, or a tail
        // expression — the handle is used.
        return false;
    }
    if prefix.is_empty() {
        return true; // bare `thread::spawn(..);`
    }
    let squashed: String = prefix.split_whitespace().collect::<Vec<_>>().join(" ");
    squashed.starts_with("let _ =")
}

/// Rule `lint-directive`: a malformed suppression must be an error, not a
/// silently inert comment.
fn malformed_directives(rel_path: &str, file: &ScannedFile, out: &mut Vec<Violation>) {
    for line in &file.lines {
        if let Some(Err(problem)) = parse_allow_directive(&line.comment) {
            out.push(Violation {
                path: rel_path.to_string(),
                line: line.number,
                rule: "lint-directive",
                message: problem,
                snippet: line.raw.trim().to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist::Allowlist;

    const HOT: &str = "crates/flow/src/demo.rs";
    const WIRE: &str = "crates/collect/src/wire.rs";
    const COLLECT: &str = "crates/collect/src/demo.rs";
    const FAULTS: &str = "crates/collect/src/faults.rs";
    const CHECKPOINT: &str = "crates/collect/src/checkpoint.rs";

    fn lint(path: &str, src: &str) -> Vec<Violation> {
        lint_source(path, src, &Allowlist::default())
    }

    fn rules_of(found: &[Violation]) -> Vec<&'static str> {
        found.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn unwrap_and_expect_fire_in_hot_path_code() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g(x: Option<u8>) -> u8 { x.expect(\"present\") }\n\
                   fn h() { panic!(\"boom\") }\n";
        let found = lint(HOT, src);
        assert_eq!(
            rules_of(&found),
            vec!["hot-path-panic", "hot-path-panic", "hot-path-panic"]
        );
        assert_eq!(found[0].line, 1);
        assert_eq!(found[2].line, 3);
    }

    #[test]
    fn non_panicking_lookalikes_do_not_fire() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   fn g(r: Result<u8, u8>) -> u8 { r.unwrap_or_default() }\n\
                   fn h(r: Result<u8, u8>) -> u8 { r.expect_err(\"swapped\") }\n";
        assert!(lint(HOT, src).is_empty());
    }

    #[test]
    fn string_literals_and_comments_are_not_code() {
        let src = "// a comment mentioning .unwrap() is fine\n\
                   fn f() -> &'static str { \".unwrap() and panic!\" }\n";
        assert!(lint(HOT, src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn ok() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   }\n";
        assert!(lint(HOT, src).is_empty());
    }

    #[test]
    fn code_after_a_test_module_is_back_in_scope() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let found = lint(HOT, src);
        assert_eq!(rules_of(&found), vec!["hot-path-panic"]);
        assert_eq!(found[0].line, 5);
    }

    #[test]
    fn out_of_scope_paths_are_skipped() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint("crates/bench/src/lib.rs", src).is_empty());
        assert!(lint("crates/flow/tests/int.rs", src).is_empty());
        assert!(lint("crates/flow/benches/b.rs", src).is_empty());
        assert!(lint("crates/flow/src/bin/tool.rs", src).is_empty());
        assert!(lint("vendor/serde/src/lib.rs", src).is_empty());
    }

    #[test]
    fn inline_allow_with_reason_suppresses() {
        let src = "// lint: allow(hot-path-panic, value proven present two lines up)\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(lint(HOT, src).is_empty());
        let same_line =
            "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint: allow(hot-path-panic, proven)\n";
        assert!(lint(HOT, same_line).is_empty());
    }

    #[test]
    fn allow_for_a_different_rule_does_not_suppress() {
        let src = "// lint: allow(truncating-cast, wrong rule on purpose)\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&lint(HOT, src)), vec!["hot-path-panic"]);
    }

    #[test]
    fn malformed_directives_are_violations_themselves() {
        let missing_reason = "// lint: allow(hot-path-panic)\nfn f() {}\n";
        assert_eq!(rules_of(&lint(HOT, missing_reason)), vec!["lint-directive"]);
        let unknown_rule = "// lint: allow(no-such-rule, why)\nfn f() {}\n";
        assert_eq!(rules_of(&lint(HOT, unknown_rule)), vec!["lint-directive"]);
    }

    #[test]
    fn allowlist_entry_suppresses_by_path_and_pattern() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let toml = "[[allow]]\n\
                    rule = \"hot-path-panic\"\n\
                    path = \"crates/flow/src/demo.rs\"\n\
                    pattern = \"x.unwrap()\"\n\
                    reason = \"exercised by the engine's own tests\"\n";
        let allow = Allowlist::parse(toml).expect("valid allowlist");
        assert!(lint_source(HOT, src, &allow).is_empty());
        // Same entry, different file: no suppression.
        assert_eq!(
            rules_of(&lint_source("crates/flow/src/other.rs", src, &allow)),
            vec!["hot-path-panic"]
        );
    }

    #[test]
    fn bare_casts_fire_only_in_wire_boundary_files() {
        let src = "fn f(x: u64) -> u8 { (x & 0xFF) as u8 }\n";
        let found = lint(WIRE, src);
        assert_eq!(rules_of(&found), vec!["truncating-cast"]);
        assert!(found[0].message.contains("u8::try_from"));
        assert!(lint(COLLECT, src).is_empty());
    }

    #[test]
    fn non_cast_uses_of_as_do_not_fire() {
        let src = "use std::io::Read as _;\nfn f(x: f64) -> f64 { x as f64 }\n";
        assert!(lint(WIRE, src).is_empty());
    }

    #[test]
    fn relaxed_ordering_needs_a_relaxed_ok_note() {
        let bare = "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        assert_eq!(rules_of(&lint(HOT, bare)), vec!["atomics-audit"]);
        let noted = "// relaxed-ok: monitoring read, staleness is fine\n\
                     fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n";
        assert!(lint(HOT, noted).is_empty());
        let trailing =
            "fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) } // relaxed-ok: scrape\n";
        assert!(lint(HOT, trailing).is_empty());
    }

    #[test]
    fn unbounded_channels_fire_in_collect_only() {
        let src =
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); tx.send(1); rx.recv(); }\n";
        assert_eq!(rules_of(&lint(COLLECT, src)), vec!["bounded-channels"]);
        assert!(lint(HOT, src).is_empty());
        let bounded = "fn f() { let (tx, rx) = std::sync::mpsc::sync_channel::<u8>(32); }\n";
        assert!(lint(COLLECT, bounded).is_empty());
    }

    #[test]
    fn fault_and_checkpoint_modules_are_inside_the_lint_perimeter() {
        // The fault proxy spawns threads and shares counters; the
        // checkpoint codec parses untrusted on-disk bytes. Both must sit
        // inside the same perimeter as the rest of the collect crate —
        // a rename that silently moved them out would gut the rules.
        let chan =
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); tx.send(1); rx.recv(); }\n";
        assert_eq!(rules_of(&lint(FAULTS, chan)), vec!["bounded-channels"]);
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_of(&lint(FAULTS, spawn)), vec!["joined-threads"]);
        let relaxed = "fn f(x: &std::sync::atomic::AtomicU64) { x.load(Ordering::Relaxed); }\n";
        assert_eq!(rules_of(&lint(FAULTS, relaxed)), vec!["atomics-audit"]);
        let cast = "fn f(x: u64) -> usize { x as usize }\n";
        assert_eq!(rules_of(&lint(CHECKPOINT, cast)), vec!["truncating-cast"]);
        assert!(
            lint(FAULTS, cast).is_empty(),
            "faults.rs is not a byte-parsing boundary"
        );
    }

    #[test]
    fn codec_v2_is_inside_the_cast_boundary() {
        // The v2 codec decodes varints, run lengths and bloom residuals
        // straight out of attacker-reachable frame payloads — the exact
        // bug class the cast rule exists for. A rename that moved it out
        // of the perimeter must break here, not silently pass.
        const CODEC_V2: &str = "crates/collect/src/codec_v2.rs";
        let cast = "fn f(x: u64) -> usize { x as usize }\n";
        assert_eq!(rules_of(&lint(CODEC_V2, cast)), vec!["truncating-cast"]);
    }

    #[test]
    fn obsv_modules_are_inside_the_lint_perimeter() {
        // The observability plane accepts untrusted HTTP connections and
        // parses on-disk history segments; it must sit inside the same
        // perimeter as the collect crate — a rename that silently moved
        // it out would gut the rules.
        const OBSV: &str = "crates/obsv/src/http.rs";
        const HISTORY: &str = "crates/obsv/src/history.rs";
        let chan =
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); tx.send(1); rx.recv(); }\n";
        assert_eq!(rules_of(&lint(OBSV, chan)), vec!["bounded-channels"]);
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_of(&lint(OBSV, spawn)), vec!["joined-threads"]);
        let unwrap = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&lint(OBSV, unwrap)), vec!["hot-path-panic"]);
        let cast = "fn f(x: u64) -> usize { x as usize }\n";
        assert_eq!(rules_of(&lint(HISTORY, cast)), vec!["truncating-cast"]);
        assert!(
            lint(OBSV, cast).is_empty(),
            "http.rs is not a byte-parsing boundary"
        );
    }

    #[test]
    fn aggregation_tier_modules_are_inside_the_lint_perimeter() {
        // The poll engine reads frame bytes straight off attacker-facing
        // sockets and the tier node (shared loop + detect and forward
        // sinks) counts them and re-encodes combined snapshots, so all
        // of it sits inside the cast boundary on top of the
        // collect-crate perimeter — a rename that silently moved either
        // role back out would gut the rules.
        const ENGINE: &str = "crates/collect/src/engine.rs";
        const NODE: &str = "crates/collect/src/node.rs";
        const AGGREGATOR: &str = "crates/collect/src/aggregator.rs";
        let cast = "fn f(x: u64) -> usize { x as usize }\n";
        for file in [ENGINE, NODE, "crates/collect/src/collector.rs", AGGREGATOR] {
            assert_eq!(rules_of(&lint(file, cast)), vec!["truncating-cast"]);
        }
        let unwrap = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&lint(ENGINE, unwrap)), vec!["hot-path-panic"]);
        let chan =
            "fn f() { let (tx, rx) = std::sync::mpsc::channel::<u8>(); tx.send(1); rx.recv(); }\n";
        assert_eq!(rules_of(&lint(NODE, chan)), vec!["bounded-channels"]);
        let spawn = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_of(&lint(NODE, spawn)), vec!["joined-threads"]);
        let relaxed = "fn f(x: &std::sync::atomic::AtomicU64) { x.load(Ordering::Relaxed); }\n";
        assert_eq!(rules_of(&lint(ENGINE, relaxed)), vec!["atomics-audit"]);
    }

    #[test]
    fn discarded_spawn_handles_fire() {
        let bare = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_of(&lint(HOT, bare)), vec!["joined-threads"]);
        let underscore = "fn f() { let _ = std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_of(&lint(HOT, underscore)), vec!["joined-threads"]);
        let dropped = "fn f() { drop(std::thread::spawn(|| {})); }\n";
        assert_eq!(rules_of(&lint(HOT, dropped)), vec!["joined-threads"]);
    }

    #[test]
    fn bound_or_chained_spawn_handles_do_not_fire() {
        let bound = "fn f() { let h = std::thread::spawn(|| {}); h.join(); }\n";
        assert!(lint(HOT, bound).is_empty());
        let chained = "fn f() { std::thread::spawn(|| {}).join(); }\n";
        assert!(lint(HOT, chained).is_empty());
        let pushed = "fn f(v: &mut Vec<JoinHandle<()>>) { v.push(std::thread::spawn(|| {})); }\n";
        assert!(lint(HOT, pushed).is_empty());
    }
}
