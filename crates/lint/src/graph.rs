//! Intra-workspace call graph and the cross-function rule packs.
//!
//! The lexical rules catch hazards where they sit; this layer catches them
//! where they *matter*: a `HashMap` iteration is harmless in a debug dump
//! and fatal three calls below the trainer's `fit`. The workspace model
//! collects every [`FnDef`] from every scanned file, resolves call sites
//! to definitions (typed receivers first, name matching as a deliberate
//! over-approximation), and runs a BFS per rule pack from its root set.
//! Every diagnostic carries the witness chain (`root → … → offender`) so
//! a finding three hops deep is as actionable as a lexical one.
//!
//! # Packs and roots
//!
//! * **det** — determinism: functions reachable from parallel-reduce roots
//!   must not iterate hash collections, feed hash order into float
//!   reduces, or mix `mul_add` into shared kernels. Built-in seeds: `fit`
//!   in `crates/core`, `resolved_tasks`.
//! * **wait** — bounded wait: functions reachable from serve roots must
//!   not block without a timeout, and their bare `loop`s must hit a
//!   checkpoint (`WorkGuard` poll or timeout-bounded wait) every
//!   iteration. Built-in seeds: `execute_ctx`, `select_*` in
//!   `crates/query`.
//!
//! Additional roots are declared in source with
//! `// crowd-lint: root(<pack>)` trailing on — or directly above — a `fn`
//! declaration.

use crate::rules::Diagnostic;
use crate::source::SourceFile;
use crate::syntax::{parse_file, CallKind, CallSite, FnDef};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The rule-pack names `root(<pack>)` annotations may reference.
pub const PACKS: &[&str] = &["det", "wait"];

/// Markers that make one `loop` iteration a checkpoint: a `WorkGuard`
/// poll, a timeout-bounded block, or explicit deadline arithmetic.
const CHECKPOINT_MARKERS: &[&str] = &[
    ".check(",
    ".consume(",
    ".wait_timeout(",
    ".recv_timeout(",
    "timeout",
    "deadline",
    "give_up",
];

/// Graph-pack rule names and one-line descriptions, in catalog order.
pub const GRAPH_RULES: &[(&str, &str, &str)] = &[
    (
        "det-no-hash-iter",
        "det",
        "no HashMap/HashSet iteration in functions reachable from determinism roots",
    ),
    (
        "det-no-unordered-float-sum",
        "det",
        "no hash-ordered iteration feeding float sum/fold/product on determinism paths",
    ),
    (
        "det-no-mul-add",
        "det",
        "no mul_add in det-reachable kernels unless both fit paths fuse identically",
    ),
    (
        "wait-bounded-block-reachable",
        "wait",
        "no unbounded .wait()/.recv() in functions reachable from serve roots",
    ),
    (
        "wait-guard-checkpoint-loop",
        "wait",
        "bare loops reachable from serve roots must checkpoint (guard poll or bounded wait)",
    ),
];

/// One function in the workspace model.
#[derive(Debug)]
struct WsFn {
    /// Index into the scanned file list.
    file: usize,
    /// Crate the file belongs to (`crates/<name>/…`, else the root crate).
    crate_name: String,
    def: FnDef,
}

/// Crate name of a workspace-relative path.
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "crowdselect".to_string()
}

/// A parsed `root(<pack>)` annotation.
#[derive(Debug)]
struct RootAnn {
    file: usize,
    /// 0-based line of the annotation comment.
    line: usize,
    pack: String,
}

/// The workspace call-graph model.
#[derive(Debug)]
pub struct Workspace {
    fns: Vec<WsFn>,
    /// Callee name → indices of non-test defs with that name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Type names that own at least one method (`impl T` / `trait T`).
    known_types: BTreeSet<String>,
    det_roots: Vec<usize>,
    wait_roots: Vec<usize>,
    /// Findings produced while building (bad root annotations).
    build_diags: Vec<Diagnostic>,
}

impl Workspace {
    /// Builds the model from every scanned file.
    pub fn build(files: &[SourceFile]) -> Self {
        let mut fns: Vec<WsFn> = Vec::new();
        let mut anns: Vec<RootAnn> = Vec::new();
        let mut build_diags = Vec::new();

        for (fi, file) in files.iter().enumerate() {
            let syn = parse_file(&file.lines);
            let crate_name = crate_of(&file.path);
            for def in syn.fns {
                fns.push(WsFn {
                    file: fi,
                    crate_name: crate_name.clone(),
                    def,
                });
            }
            for (li, line) in file.lines.iter().enumerate() {
                if let Some(body) = crate::pragma_body(&line.comment) {
                    if let Some(rest) = body.trim_start().strip_prefix("root(") {
                        if let Some(close) = rest.find(')') {
                            anns.push(RootAnn {
                                file: fi,
                                line: li,
                                pack: rest[..close].trim().to_string(),
                            });
                        } else {
                            build_diags.push(root_diag(
                                &files[fi].path,
                                li,
                                "malformed root annotation (expected \
                                 `crowd-lint: root(<pack>)`)"
                                    .to_string(),
                            ));
                        }
                    }
                }
            }
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut known_types = BTreeSet::new();
        for (i, f) in fns.iter().enumerate() {
            if f.def.is_test {
                continue;
            }
            by_name.entry(f.def.name.clone()).or_default().push(i);
            if let Some(q) = &f.def.qual {
                known_types.insert(q.clone());
            }
            if let Some(t) = &f.def.trait_name {
                known_types.insert(t.clone());
            }
        }

        let mut det_roots: Vec<usize> = Vec::new();
        let mut wait_roots: Vec<usize> = Vec::new();

        // Built-in seeds: the invariants hold even if someone deletes the
        // annotations.
        for (i, f) in fns.iter().enumerate() {
            if f.def.is_test {
                continue;
            }
            match f.def.name.as_str() {
                "fit" if f.crate_name == "core" => det_roots.push(i),
                "resolved_tasks" => det_roots.push(i),
                "execute_ctx" => wait_roots.push(i),
                n if n.starts_with("select_") && f.crate_name == "query" => wait_roots.push(i),
                _ => {}
            }
        }

        // Annotation-declared roots: trailing on the `fn` line or on a
        // comment line directly above it (attributes may intervene).
        for ann in &anns {
            if !PACKS.contains(&ann.pack.as_str()) {
                build_diags.push(root_diag(
                    &files[ann.file].path,
                    ann.line,
                    format!(
                        "root annotation names unknown pack `{}` (known: det, wait)",
                        ann.pack
                    ),
                ));
                continue;
            }
            let target = fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.file == ann.file && !f.def.is_test)
                .filter(|(_, f)| {
                    f.def.decl_line == ann.line
                        || (f.def.decl_line > ann.line && f.def.decl_line <= ann.line + 4)
                })
                .min_by_key(|(_, f)| f.def.decl_line)
                .map(|(i, _)| i);
            match target {
                Some(i) => match ann.pack.as_str() {
                    "det" => det_roots.push(i),
                    _ => wait_roots.push(i),
                },
                None => build_diags.push(root_diag(
                    &files[ann.file].path,
                    ann.line,
                    format!(
                        "root({}) annotation is not attached to a fn declaration \
                         (place it on or directly above one)",
                        ann.pack
                    ),
                )),
            }
        }
        det_roots.sort_unstable();
        det_roots.dedup();
        wait_roots.sort_unstable();
        wait_roots.dedup();

        Workspace {
            fns,
            by_name,
            known_types,
            det_roots,
            wait_roots,
            build_diags,
        }
    }

    /// Resolves one call site made from `caller` to candidate definitions.
    ///
    /// Precedence: typed receivers bind to that type's methods only (a
    /// known type with no workspace method is a std call — no edge);
    /// known-type path qualifiers likewise; everything else falls back to
    /// name matching, same-crate first, then workspace-wide for free
    /// calls (`use`-imported cross-crate helpers). Unknown-receiver
    /// method calls stay same-crate — the one place the over-approximation
    /// is trimmed, because `.run(`/`.merge(` name-matching across crates
    /// would make everything reachable from everything.
    fn resolve(&self, caller: usize, call: &CallSite) -> Vec<usize> {
        let candidates: &[usize] = match self.by_name.get(&call.name) {
            Some(v) => v,
            None => return Vec::new(),
        };
        let caller_crate = &self.fns[caller].crate_name;
        let methods_of = |t: &str| -> Vec<usize> {
            candidates
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &self.fns[i];
                    f.def.qual.as_deref() == Some(t) || f.def.trait_name.as_deref() == Some(t)
                })
                .collect()
        };
        match &call.kind {
            CallKind::Method { recv_type: Some(t) } => {
                // Single-letter "types" are generic parameters: unknown.
                if t.len() > 1 && self.known_types.contains(t) {
                    return methods_of(t);
                }
                if t.len() > 1 {
                    // A concrete foreign type (std, etc.): no edge.
                    return Vec::new();
                }
                self.same_crate_methods(candidates, caller_crate)
            }
            CallKind::Method { recv_type: None } => {
                self.same_crate_methods(candidates, caller_crate)
            }
            CallKind::Path { qualifier } => {
                if self.known_types.contains(qualifier) {
                    return methods_of(qualifier);
                }
                // Module-qualified free call.
                let same: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.fns[i].def.qual.is_none() && self.fns[i].crate_name == *caller_crate
                    })
                    .collect();
                if !same.is_empty() {
                    return same;
                }
                candidates
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].def.qual.is_none())
                    .collect()
            }
            CallKind::Free => {
                let same: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&i| {
                        self.fns[i].def.qual.is_none() && self.fns[i].crate_name == *caller_crate
                    })
                    .collect();
                if !same.is_empty() {
                    return same;
                }
                candidates
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].def.qual.is_none())
                    .collect()
            }
        }
    }

    fn same_crate_methods(&self, candidates: &[usize], caller_crate: &str) -> Vec<usize> {
        candidates
            .iter()
            .copied()
            .filter(|&i| self.fns[i].def.qual.is_some() && self.fns[i].crate_name == caller_crate)
            .collect()
    }

    /// BFS from `roots`; returns `fn index → parent fn index` for every
    /// reachable function (roots map to themselves).
    fn reach(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(i) = queue.pop_front() {
            // Collect + sort for a deterministic visit order (stable
            // witness chains across runs).
            let mut nexts: Vec<usize> = Vec::new();
            for call in &self.fns[i].def.calls {
                nexts.extend(self.resolve(i, call));
            }
            nexts.sort_unstable();
            nexts.dedup();
            for n in nexts {
                if self.fns[n].def.is_test {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(n) {
                    e.insert(i);
                    queue.push_back(n);
                }
            }
        }
        parent
    }

    /// The witness chain `root → … → target` as display names.
    fn witness(&self, parent: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut chain = vec![self.display(target)];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == cur {
                break;
            }
            chain.push(self.display(p));
            cur = p;
        }
        chain.reverse();
        chain
    }

    fn display(&self, i: usize) -> String {
        let f = &self.fns[i];
        match &f.def.qual {
            Some(q) => format!("{}::{}", q, f.def.name),
            None => f.def.name.clone(),
        }
    }
}

fn root_diag(path: &str, line_idx: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule: "invalid-pragma",
        path: path.to_string(),
        line: line_idx + 1,
        message,
        suppressed: false,
        reason: None,
        witness: Vec::new(),
    }
}

fn graph_diag(
    rule: &'static str,
    ws: &Workspace,
    files: &[SourceFile],
    fn_idx: usize,
    line_idx: usize,
    witness: Vec<String>,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        path: files[ws.fns[fn_idx].file].path.clone(),
        line: line_idx + 1,
        message,
        suppressed: false,
        reason: None,
        witness,
    }
}

fn chain_suffix(witness: &[String]) -> String {
    if witness.len() <= 1 {
        " (a determinism/serve root itself)".to_string()
    } else {
        format!(" (via {})", witness.join(" → "))
    }
}

/// Runs both rule packs over the scanned files and appends raw
/// diagnostics (pragma application happens in the engine afterwards).
pub fn check(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let ws = Workspace::build(files);
    out.extend(ws.build_diags.iter().cloned());

    // ---- det pack -------------------------------------------------------
    let det = ws.reach(&ws.det_roots);
    for &i in det.keys() {
        let f = &ws.fns[i];
        if f.def.is_test {
            continue;
        }
        let witness = ws.witness(&det, i);
        let suffix = chain_suffix(&witness);
        for site in &f.def.hash_iters {
            let (rule, hazard) = if site.feeds_reduce {
                (
                    "det-no-unordered-float-sum",
                    "feeds hash iteration order into a float reduce",
                )
            } else {
                ("det-no-hash-iter", "iterates a hash collection")
            };
            out.push(graph_diag(
                rule,
                &ws,
                files,
                i,
                site.line,
                witness.clone(),
                format!(
                    "`{}` {hazard} in `{}`, reachable from a determinism root{suffix}: \
                     hash order is random per process, so the reduction stops being \
                     bit-identical — use a Vec or BTreeMap, or sort before folding",
                    site.what,
                    ws.display(i),
                ),
            ));
        }
        for &line in &f.def.mul_add_lines {
            out.push(graph_diag(
                "det-no-mul-add",
                &ws,
                files,
                i,
                line,
                witness.clone(),
                format!(
                    "`mul_add` in det-reachable `{}`{suffix}: fused rounding diverges \
                     from the unfused oracle unless *every* fit path runs this exact \
                     kernel — prove it and suppress, or split the operation",
                    ws.display(i),
                ),
            ));
        }
    }

    // ---- wait pack ------------------------------------------------------
    let wait = ws.reach(&ws.wait_roots);
    for &i in wait.keys() {
        let f = &ws.fns[i];
        if f.def.is_test {
            continue;
        }
        let witness = ws.witness(&wait, i);
        let suffix = chain_suffix(&witness);
        for (line, method) in &f.def.unbounded_block_lines {
            out.push(graph_diag(
                "wait-bounded-block-reachable",
                &ws,
                files,
                i,
                *line,
                witness.clone(),
                format!(
                    "unbounded `.{method}(` in `{}`, reachable from a serve root{suffix}: \
                     a stuck peer blocks the query forever — use the `_timeout` variant \
                     bounded by the query deadline",
                    ws.display(i),
                ),
            ));
        }
        let file = &files[f.file];
        for lp in &f.def.loops {
            let has_checkpoint = (lp.start..=lp.end.min(file.lines.len() - 1)).any(|li| {
                let code = &file.lines[li].code;
                CHECKPOINT_MARKERS.iter().any(|m| code.contains(m))
            });
            if !has_checkpoint {
                out.push(graph_diag(
                    "wait-guard-checkpoint-loop",
                    &ws,
                    files,
                    i,
                    lp.start,
                    witness.clone(),
                    format!(
                        "bare `loop` in `{}`, reachable from a serve root{suffix}, never \
                         checkpoints: poll the `WorkGuard` (`check`/`consume`) or use a \
                         timeout-bounded wait each iteration so deadlines and \
                         cancellation can fire",
                        ws.display(i),
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src, false)
    }

    fn run(files: &[SourceFile]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check(files, &mut out);
        out
    }

    #[test]
    fn builtin_det_root_reaches_two_hops() {
        let files = [sf(
            "crates/core/src/trainer.rs",
            "\
pub fn fit(n: usize) -> f64 {
    mid(n)
}
fn mid(n: usize) -> f64 {
    let m: HashMap<u64, f64> = HashMap::new();
    tally(&m)
}
fn tally(m: &HashMap<u64, f64>) -> f64 {
    m.values().sum()
}
",
        )];
        let diags = run(&files);
        let hit = diags
            .iter()
            .find(|d| d.rule == "det-no-unordered-float-sum")
            .expect("two-hop hash sum must be reachable");
        assert_eq!(hit.line, 9);
        assert_eq!(hit.witness, vec!["fit", "mid", "tally"]);
    }

    #[test]
    fn unreachable_hash_iter_is_clean() {
        let files = [sf(
            "crates/core/src/trainer.rs",
            "\
pub fn fit(n: usize) -> f64 {
    n as f64
}
fn debug_dump(m: &HashMap<u64, f64>) -> f64 {
    m.values().sum()
}
",
        )];
        let diags = run(&files);
        assert!(
            diags.iter().all(|d| !d.rule.starts_with("det-")),
            "{diags:?}"
        );
    }

    #[test]
    fn root_annotation_declares_roots_and_bad_ones_are_findings() {
        let files = [sf(
            "crates/math/src/pool.rs",
            "\
// crowd-lint: root(det)
pub fn run_jobs(m: &HashMap<u64, f64>) {
    for v in m.values() {
        let _ = v;
    }
}
// crowd-lint: root(nosuchpack)
pub fn other() {}
// crowd-lint: root(wait)
static X: u32 = 0;
",
        )];
        let diags = run(&files);
        assert!(diags.iter().any(|d| d.rule == "det-no-hash-iter"));
        assert!(diags
            .iter()
            .any(|d| d.rule == "invalid-pragma" && d.message.contains("unknown pack")));
        assert!(diags
            .iter()
            .any(|d| d.rule == "invalid-pragma" && d.message.contains("not attached")));
    }

    #[test]
    fn typed_receiver_does_not_leak_to_name_collision() {
        // `validate::run` (free, same crate) vs `ScoringPool::run` (method,
        // other crate): a typed `ScoringPool::global().run(...)` call must
        // edge to the method, and a free `run(...)` call in crates/core
        // must edge to the free fn only.
        let files = [
            sf(
                "crates/core/src/trainer.rs",
                "\
pub fn fit() {
    ScoringPool::global().run(1);
    run(2);
}
pub fn run(x: u32) -> u32 { x }
",
            ),
            sf(
                "crates/math/src/pool.rs",
                "\
pub struct ScoringPool { jobs: HashMap<u64, u64> }
impl ScoringPool {
    pub fn global() -> ScoringPool { ScoringPool { jobs: HashMap::new() } }
    pub fn run(&self, n: u64) {
        for j in self.jobs.values() {
            let _ = j;
        }
    }
}
",
            ),
        ];
        let diags = run(&files);
        let hit = diags
            .iter()
            .find(|d| d.rule == "det-no-hash-iter")
            .expect("pool method must be det-reachable via typed receiver");
        assert_eq!(hit.witness, vec!["fit", "ScoringPool::run"]);
    }

    #[test]
    fn wait_pack_flags_blocking_and_bare_loops_with_witness() {
        let files = [sf(
            "crates/query/src/exec/mod.rs",
            "\
pub fn execute_ctx() {
    helper();
}
fn helper() {
    let _ = rx.recv();
    loop {
        spin();
    }
}
fn bounded() {
    loop {
        if ctx.check(now).is_err() {
            break;
        }
    }
}
",
        )];
        let diags = run(&files);
        let block = diags
            .iter()
            .find(|d| d.rule == "wait-bounded-block-reachable")
            .expect("recv must be flagged through one hop");
        assert_eq!(block.witness, vec!["execute_ctx", "helper"]);
        assert!(diags.iter().any(|d| d.rule == "wait-guard-checkpoint-loop"));
        // `bounded` is not reachable (nobody calls it) — and its loop has a
        // checkpoint anyway.
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == "wait-guard-checkpoint-loop")
                .count(),
            1
        );
    }

    #[test]
    fn select_prefix_is_a_wait_root_only_in_query() {
        let q = sf(
            "crates/query/src/engine.rs",
            "pub fn select_workers_batch() { let _ = rx.recv(); }\n",
        );
        let other = sf(
            "crates/sim/src/gen.rs",
            "pub fn select_sample() { let _ = rx.recv(); }\n",
        );
        let diags = run(&[q, other]);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "wait-bounded-block-reachable")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].path.contains("query"));
    }

    #[test]
    fn fit_is_a_det_root_only_in_core() {
        let src = "\
pub fn fit(m: &HashMap<u64, f64>) {
    for v in m.values() {
        let _ = v;
    }
}
";
        let core = sf("crates/core/src/trainer.rs", src);
        let other = sf("crates/baselines/src/vsm.rs", src);
        let diags = run(&[core, other]);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "det-no-hash-iter")
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].path.contains("core"));
    }

    #[test]
    fn test_fns_are_not_roots_or_targets() {
        let files = [sf(
            "crates/core/src/trainer.rs",
            "\
#[cfg(test)]
mod tests {
    fn fit() {
        let m: HashMap<u64, f64> = HashMap::new();
        let _: f64 = m.values().sum();
    }
}
",
        )];
        let diags = run(&files);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
