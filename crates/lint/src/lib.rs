#![warn(missing_docs)]

//! `crowd-lint` — the workspace's static-analysis pass.
//!
//! TDPM's correctness rests on invariants the compiler cannot see: no
//! panics on serving paths, total-order float comparisons, deterministic
//! snapshot serialization, no silent integer truncation, documented panic
//! contracts — and, since the sharded fit, *cross-function* properties:
//! nothing reachable from a parallel-reduce root may iterate a hash
//! collection, and nothing reachable from a serve root may block without
//! a bound. This crate walks every workspace `*.rs` file (string/comment
//! aware — see [`strip`]), runs the lexical rule registry
//! ([`rules::default_rules`]) over the code channel, builds an
//! intra-workspace call graph ([`graph`]) over the token-tree model
//! ([`syntax`]) for the reachability rule packs, honours per-site
//! suppression pragmas, and renders `file:line` diagnostics plus a
//! machine-readable JSON report (see [`report::Report`]).
//!
//! # Pragma syntax
//!
//! ```text
//! // crowd-lint: allow(<rule-name>) -- <reason>
//! // crowd-lint: root(<pack>)
//! ```
//!
//! `allow` is placed either trailing on the offending line or on its own
//! line(s) directly above it. The reason is mandatory, and a reasoned
//! pragma that suppresses nothing is *stale* — both are `invalid-pragma`
//! findings, so every suppression in the tree is justified and live.
//! `root` marks the `fn` it annotates (trailing or directly above) as a
//! reachability root for a rule pack (`det` or `wait`); built-in seeds
//! cover the fit/serve entry points even without annotations.
//!
//! No dependencies, no proc macros: the tool stays trivially buildable in
//! the offline CI image and runs in milliseconds.

pub mod graph;
pub mod report;
pub mod rules;
pub mod source;
pub mod strip;
pub mod syntax;

use report::Report;
use rules::{default_rules, rule_catalog, Diagnostic};
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Directory names never descended into (build output, VCS, vendored
/// stubs, lint fixtures — fixtures contain *deliberate* violations).
///
/// `perfbench` is the end-to-end benchmark: a cargo package of its own
/// (an empty `[workspace]` table) that drives the engine through its public
/// API from outside the workspace, so the workspace's serve-path rules do
/// not describe it.
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    ".devstubs",
    "fixtures",
    "related",
    "results",
    "perfbench",
];

/// A parsed suppression pragma.
#[derive(Debug, Clone)]
struct Pragma {
    rule: String,
    /// `None` when the mandatory `-- reason` part is missing or empty.
    reason: Option<String>,
}

/// Returns the pragma body (everything after `crowd-lint:`) when the
/// comment *is* a pragma: the marker must open the comment (`// crowd-lint:`
/// or `/* crowd-lint:`). Mentions buried in prose or doc examples
/// (`//! // crowd-lint: ...`) are documentation, not pragmas.
fn pragma_body(comment: &str) -> Option<&str> {
    let t = comment.trim();
    let rest = t.strip_prefix("//").or_else(|| t.strip_prefix("/*"))?;
    rest.trim_start().strip_prefix("crowd-lint:")
}

/// Extracts the pragma from a comment channel, if any.
fn parse_pragma(comment: &str) -> Option<Pragma> {
    let rest = pragma_body(comment)?.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let rule = rest[..close].trim().to_string();
    let tail = rest[close + 1..].trim_start();
    let reason = tail
        .strip_prefix("--")
        .map(str::trim)
        .filter(|r| !r.is_empty())
        .map(str::to_string);
    Some(Pragma { rule, reason })
}

/// `true` when the comment is a `root(<pack>)` annotation — those belong
/// to the call-graph layer ([`graph`]), which validates them itself.
fn is_root_pragma(comment: &str) -> bool {
    pragma_body(comment).is_some_and(|b| b.trim_start().starts_with("root("))
}

fn invalid_pragma(file: &SourceFile, line_idx: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule: "invalid-pragma",
        path: file.path.clone(),
        line: line_idx + 1,
        message,
        suppressed: false,
        reason: None,
        witness: Vec::new(),
    }
}

/// Applies suppression pragmas to raw diagnostics and appends
/// `invalid-pragma` findings for malformed, unreasoned, unknown-rule, or
/// stale pragmas. Must run after *all* rules (lexical and call-graph)
/// have emitted for this file, or live pragmas would be reported stale.
fn apply_pragmas(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    // Pragmas visible from line `l`: on `l` itself, or on the contiguous
    // run of pragma-only lines directly above it. Each comes with the
    // line it lives on so usage can be tracked for stale detection.
    let pragmas_for = |l: usize| -> Vec<(usize, Pragma)> {
        let mut out = Vec::new();
        if let Some(p) = parse_pragma(&file.lines[l].comment) {
            out.push((l, p));
        }
        let mut j = l;
        while j > 0 {
            j -= 1;
            let line = &file.lines[j];
            if line.code.trim().is_empty() && pragma_body(&line.comment).is_some() {
                if let Some(p) = parse_pragma(&line.comment) {
                    out.push((j, p));
                }
            } else {
                break;
            }
        }
        out
    };

    let mut used: Vec<usize> = Vec::new();
    for d in diags.iter_mut() {
        let l = d.line - 1;
        for (pl, p) in pragmas_for(l) {
            if p.rule == d.rule {
                if let Some(reason) = p.reason {
                    d.suppressed = true;
                    d.reason = Some(reason);
                    used.push(pl);
                }
                break;
            }
        }
    }

    // Every pragma in the file must be well-formed, reasoned, name a known
    // rule, and actually suppress something.
    let known: Vec<&'static str> = rule_catalog()
        .iter()
        .map(|r| r.name)
        .filter(|&n| n != "invalid-pragma")
        .collect();
    for (i, line) in file.lines.iter().enumerate() {
        if pragma_body(&line.comment).is_none() || is_root_pragma(&line.comment) {
            continue;
        }
        match parse_pragma(&line.comment) {
            Some(p) if p.reason.is_none() => diags.push(invalid_pragma(
                file,
                i,
                format!(
                    "pragma for `{}` has no written reason (`-- <why>` is mandatory)",
                    p.rule
                ),
            )),
            Some(p) if !known.contains(&p.rule.as_str()) => diags.push(invalid_pragma(
                file,
                i,
                format!("pragma names unknown rule `{}`", p.rule),
            )),
            Some(p) => {
                if !used.contains(&i) {
                    diags.push(invalid_pragma(
                        file,
                        i,
                        format!(
                            "stale pragma: `{}` no longer fires on the line this \
                             suppression covers — remove it",
                            p.rule
                        ),
                    ));
                }
            }
            None => diags.push(invalid_pragma(
                file,
                i,
                "malformed crowd-lint pragma (expected \
                 `crowd-lint: allow(<rule>) -- <reason>` or `crowd-lint: root(<pack>)`)"
                    .to_string(),
            )),
        }
    }
}

/// Lints a set of in-memory sources as one workspace: per-file lexical
/// rules, the cross-file call-graph packs, then pragma application and
/// stale detection per file. This is the seam both the unit tests and
/// [`lint_root`] drive.
pub fn lint_sources(inputs: &[(String, String)]) -> Vec<Diagnostic> {
    let files: Vec<SourceFile> = inputs
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel.clone(), src, is_test_path(rel)))
        .collect();

    let mut diags: Vec<Diagnostic> = Vec::new();
    for file in &files {
        for rule in default_rules() {
            rule.check(file, &mut diags);
        }
    }
    graph::check(&files, &mut diags);

    // Pragmas are per-file, but they can only be applied once every rule
    // (including the workspace-wide ones) has finished emitting.
    let mut out: Vec<Diagnostic> = Vec::new();
    for file in &files {
        let mut file_diags: Vec<Diagnostic> = Vec::new();
        let mut rest = Vec::new();
        for d in diags {
            if d.path == file.path {
                file_diags.push(d);
            } else {
                rest.push(d);
            }
        }
        diags = rest;
        apply_pragmas(file, &mut file_diags);
        out.extend(file_diags);
    }
    out.extend(diags);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Lints a single source text as if it lived at `rel_path` under the root
/// (a one-file workspace: call-graph packs still run, scoped to the file).
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(rel_path.to_string(), src.to_string())])
}

/// `true` for paths whose whole file is test/bench code.
fn is_test_path(rel: &str) -> bool {
    rel.split('/').any(|c| c == "tests" || c == "benches")
}

/// Recursively collects the `*.rs` files under `root` (sorted, skipping
/// [`SKIP_DIRS`]), as `/`-separated paths relative to `root`.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    let rel: Vec<String> = rel
                        .components()
                        .map(|c| c.as_os_str().to_string_lossy().into_owned())
                        .collect();
                    out.push(rel.join("/"));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints every workspace source file under `root` — one call-graph over
/// the whole tree — and builds the report.
pub fn lint_root(root: &Path) -> std::io::Result<Report> {
    let files = collect_files(root)?;
    let mut inputs: Vec<(String, String)> = Vec::with_capacity(files.len());
    for rel in &files {
        inputs.push((rel.clone(), std::fs::read_to_string(root.join(rel))?));
    }
    let diagnostics = lint_sources(&inputs);
    Ok(Report::build(files.len(), diagnostics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unsuppressed<'d>(diags: &'d [Diagnostic], rule: &str) -> Vec<&'d Diagnostic> {
        diags
            .iter()
            .filter(|d| d.rule == rule && !d.suppressed)
            .collect()
    }

    // ---- no-unwrap-on-serve-path ---------------------------------------

    #[test]
    fn unwrap_on_serve_path_is_flagged() {
        let diags = lint_source(
            "crates/core/src/model.rs",
            "fn f() { x.lock().unwrap(); y.expect(\"msg\"); }\n",
        );
        let hits = unsuppressed(&diags, "no-unwrap-on-serve-path");
        assert_eq!(hits.len(), 2, "{diags:?}");
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn unwrap_outside_serve_crates_is_not_flagged() {
        let diags = lint_source("crates/eval/src/metrics.rs", "fn f() { x.unwrap(); }\n");
        assert!(unsuppressed(&diags, "no-unwrap-on-serve-path").is_empty());
    }

    #[test]
    fn unwrap_in_cfg_test_mod_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        let diags = lint_source("crates/store/src/db.rs", src);
        assert!(unsuppressed(&diags, "no-unwrap-on-serve-path").is_empty());
    }

    #[test]
    fn unwrap_in_string_or_comment_is_ignored() {
        let src = "fn f() {\n  let s = \".unwrap()\"; // .unwrap() in comment\n}\n\
                   /// doctest: x.unwrap()\nfn g() {}\n";
        let diags = lint_source("crates/query/src/engine.rs", src);
        assert!(unsuppressed(&diags, "no-unwrap-on-serve-path").is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); \
                   e.expect_err(\"no\"); }\n";
        let diags = lint_source("crates/select/src/ranking.rs", src);
        assert!(unsuppressed(&diags, "no-unwrap-on-serve-path").is_empty());
    }

    #[test]
    fn pragma_with_reason_suppresses() {
        let src = "fn f() {\n  // crowd-lint: allow(no-unwrap-on-serve-path) -- vec built \
                   non-empty two lines up\n  x.unwrap();\n}\n";
        let diags = lint_source("crates/core/src/trainer.rs", src);
        assert!(unsuppressed(&diags, "no-unwrap-on-serve-path").is_empty());
        assert!(diags
            .iter()
            .any(|d| d.suppressed && d.reason.as_deref().is_some_and(|r| r.contains("vec"))));
    }

    #[test]
    fn trailing_pragma_suppresses() {
        let src = "fn f() { x.unwrap(); } // crowd-lint: allow(no-unwrap-on-serve-path) -- demo\n";
        let diags = lint_source("crates/core/src/trainer.rs", src);
        assert!(unsuppressed(&diags, "no-unwrap-on-serve-path").is_empty());
    }

    #[test]
    fn pragma_without_reason_is_invalid_and_does_not_suppress() {
        let src = "fn f() {\n  // crowd-lint: allow(no-unwrap-on-serve-path)\n  x.unwrap();\n}\n";
        let diags = lint_source("crates/core/src/trainer.rs", src);
        assert_eq!(unsuppressed(&diags, "no-unwrap-on-serve-path").len(), 1);
        assert_eq!(unsuppressed(&diags, "invalid-pragma").len(), 1);
    }

    #[test]
    fn pragma_for_unknown_rule_is_invalid() {
        let src = "// crowd-lint: allow(no-such-rule) -- why\nfn f() {}\n";
        let diags = lint_source("crates/core/src/trainer.rs", src);
        assert_eq!(unsuppressed(&diags, "invalid-pragma").len(), 1);
    }

    // ---- bounded-wait-on-serve-path ------------------------------------

    #[test]
    fn unbounded_wait_on_serve_path_is_flagged() {
        let src = "fn f(cv: &Condvar, g: MutexGuard<bool>) { let _g = cv.wait(g); }\n";
        let diags = lint_source("crates/query/src/admission.rs", src);
        assert_eq!(unsuppressed(&diags, "bounded-wait-on-serve-path").len(), 1);
    }

    #[test]
    fn wait_timeout_is_not_flagged() {
        let src = "fn f(cv: &Condvar, g: MutexGuard<bool>) {\n  \
                   let _r = cv.wait_timeout(g, remaining);\n}\n";
        let diags = lint_source("crates/query/src/admission.rs", src);
        assert!(unsuppressed(&diags, "bounded-wait-on-serve-path").is_empty());
    }

    #[test]
    fn unbounded_wait_outside_serve_crates_is_not_flagged() {
        let diags = lint_source("crates/eval/src/metrics.rs", "fn f() { cv.wait(g); }\n");
        assert!(unsuppressed(&diags, "bounded-wait-on-serve-path").is_empty());
    }

    #[test]
    fn unbounded_wait_in_test_code_is_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { cv.wait(g); }\n}\n";
        let diags = lint_source("crates/query/src/admission.rs", src);
        assert!(unsuppressed(&diags, "bounded-wait-on-serve-path").is_empty());
    }

    // ---- no-partial-cmp-unwrap -----------------------------------------

    #[test]
    fn partial_cmp_call_is_flagged_but_impl_is_not() {
        let src = "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n\
                   fn partial_cmp(a: &X, b: &X) -> Option<Ordering> { None }\n";
        let diags = lint_source("crates/eval/src/metrics.rs", src);
        assert_eq!(unsuppressed(&diags, "no-partial-cmp-unwrap").len(), 1);
    }

    #[test]
    fn partial_cmp_in_comment_is_ignored() {
        let src = "// prefer total_cmp over .partial_cmp( here\nfn f() {}\n";
        let diags = lint_source("crates/eval/src/metrics.rs", src);
        assert!(unsuppressed(&diags, "no-partial-cmp-unwrap").is_empty());
    }

    // ---- deterministic-snapshot-maps -----------------------------------

    #[test]
    fn hashmap_in_serialize_derive_is_flagged() {
        let src = "#[derive(Debug, Serialize)]\npub struct Snap {\n    \
                   map: HashMap<u32, u32>,\n}\n";
        let diags = lint_source("crates/obs/src/metrics.rs", src);
        assert_eq!(unsuppressed(&diags, "deterministic-snapshot-maps").len(), 1);
    }

    #[test]
    fn hashmap_in_snapshot_fn_is_flagged() {
        let src = "pub fn snapshot(&self) -> Snap {\n    let m: HashMap<u32, u32> = \
                   HashMap::new();\n    Snap {}\n}\n";
        let diags = lint_source("crates/obs/src/metrics.rs", src);
        assert_eq!(unsuppressed(&diags, "deterministic-snapshot-maps").len(), 1);
    }

    #[test]
    fn serde_skipped_hashmap_is_not_flagged() {
        let src = "#[derive(Debug, Serialize)]\npub struct Snap {\n    terms: Vec<String>,\n    \
                   #[serde(skip)]\n    index: HashMap<String, u32>,\n}\n";
        let diags = lint_source("crates/obs/src/metrics.rs", src);
        assert!(
            unsuppressed(&diags, "deterministic-snapshot-maps").is_empty(),
            "a #[serde(skip)] field never reaches the serializer"
        );
    }

    #[test]
    fn hashmap_in_plain_struct_is_not_flagged() {
        let src = "pub struct Index {\n    map: HashMap<u32, u32>,\n}\n";
        let diags = lint_source("crates/store/src/db.rs", src);
        assert!(unsuppressed(&diags, "deterministic-snapshot-maps").is_empty());
    }

    // ---- no-silent-truncation ------------------------------------------

    #[test]
    fn narrowing_cast_is_flagged_and_widening_is_not() {
        let src = "fn f(n: u64) { let a = n as u32; let b = n as f64; let c = 3u8 as usize; }\n";
        let diags = lint_source("crates/store/src/ids.rs", src);
        let hits = unsuppressed(&diags, "no-silent-truncation");
        assert_eq!(hits.len(), 1, "{diags:?}");
    }

    #[test]
    fn cast_in_string_is_ignored() {
        let src = "fn f() { let s = \"x as u32\"; }\n";
        let diags = lint_source("crates/store/src/ids.rs", src);
        assert!(unsuppressed(&diags, "no-silent-truncation").is_empty());
    }

    // ---- pub-fn-panics-documented --------------------------------------

    #[test]
    fn undocumented_panicking_pub_fn_is_flagged() {
        let src = "/// Frobs.\npub fn frob(x: u32) {\n    assert!(x > 0);\n}\n";
        let diags = lint_source("crates/math/src/matrix.rs", src);
        assert_eq!(unsuppressed(&diags, "pub-fn-panics-documented").len(), 1);
    }

    #[test]
    fn documented_panicking_pub_fn_is_clean() {
        let src = "/// Frobs.\n///\n/// # Panics\n/// If x is 0.\npub fn frob(x: u32) {\n    \
                   assert!(x > 0);\n}\n";
        let diags = lint_source("crates/math/src/matrix.rs", src);
        assert!(unsuppressed(&diags, "pub-fn-panics-documented").is_empty());
    }

    #[test]
    fn debug_assert_does_not_count_as_panic() {
        let src = "pub fn frob(x: u32) {\n    debug_assert!(x > 0);\n    \
                   debug_assert_eq!(x, x);\n}\n";
        let diags = lint_source("crates/math/src/matrix.rs", src);
        assert!(unsuppressed(&diags, "pub-fn-panics-documented").is_empty());
    }

    #[test]
    fn non_pub_fn_is_not_checked() {
        let src = "fn private(x: u32) { assert!(x > 0); }\n\
                   pub(crate) fn crate_only(x: u32) { assert!(x > 0); }\n";
        let diags = lint_source("crates/math/src/matrix.rs", src);
        assert!(unsuppressed(&diags, "pub-fn-panics-documented").is_empty());
    }

    // ---- file walking ---------------------------------------------------

    #[test]
    fn collect_files_skips_the_benchmark_package() {
        let root = std::env::temp_dir().join(format!("crowd-lint-walk-{}", std::process::id()));
        for dir in ["crates/core/src", "perfbench/src"] {
            std::fs::create_dir_all(root.join(dir)).unwrap();
        }
        std::fs::write(root.join("crates/core/src/lib.rs"), "fn f() {}\n").unwrap();
        std::fs::write(root.join("perfbench/src/main.rs"), "fn main() {}\n").unwrap();
        let files = collect_files(&root);
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(files.unwrap(), vec!["crates/core/src/lib.rs".to_string()]);
    }

    #[test]
    fn integration_test_files_are_exempt() {
        let diags = lint_source(
            "crates/core/tests/end_to_end.rs",
            "fn f() { x.unwrap(); }\n",
        );
        assert!(diags
            .iter()
            .all(|d| d.suppressed || d.rule == "invalid-pragma"));
        assert!(unsuppressed(&diags, "no-unwrap-on-serve-path").is_empty());
    }
}
