//! The rule engine: per-file structural analysis, the determinism rule set, and
//! `audit:allow` suppression handling.
//!
//! Every rule matches **token sequences** from [`crate::lexer`] — never raw
//! text — and is scoped by the file's crate and Cargo role (see
//! [`crate::walk`]). Code under `#[cfg(test)]` / `#[test]` attributes is
//! excluded from the purity rules (tests may time themselves and unwrap
//! freely) but *not* from `unsafe` hygiene.
//!
//! ## Suppressions
//!
//! A finding is suppressed by a comment on the same line or the line directly
//! above, of the shape (the comment must start with the directive):
//!
//! ```text
//! // audit:allow(unwrap-in-library): mutex poisoning only follows a worker panic
//! ```
//!
//! Suppressions are themselves linted: an allow without a reason, naming an
//! unknown rule, or matching no finding is an error (`malformed-allow` /
//! `stale-allow`), so the allowlist can never rot silently.

use crate::diag::Diagnostic;
use crate::lexer::{lex, Kind, Token};
use crate::walk::{Role, SourceFile};

/// Crates on the unit-execution path: everything that runs between a
/// `UnitKey`'s derivation and the unit result that gets cached under it.
/// Wall clocks, ambient entropy and hash-ordered iteration are contract
/// violations *here*; `pim-bench` and the bin targets are the measurement/CLI
/// layer where timing is the point.
pub(crate) const UNIT_PATH_CRATES: &[&str] = &[
    "desim",
    "pim-core",
    "pim-analytic",
    "pim-parcels",
    "pim-mem",
    "pim-workload",
    "pim-harness",
];

/// Modules *inside* unit-path crates that are nevertheless service/CLI surface,
/// not unit execution: nothing in them runs between a `UnitKey`'s derivation and
/// the cached unit result. Each entry is a workspace-relative path prefix (`/`
/// separators, no extension) covering both `<prefix>.rs` and `<prefix>/...`.
/// Classifying them off the unit path here — instead of sprinkling ad-hoc
/// `audit:allow` comments through their bodies — keeps the allow grammar
/// reserved for genuine single-site exceptions.
pub const OFF_UNIT_PATH_MODULES: &[&str] = &["crates/pim-harness/src/serve"];

/// The suppressible rules, in documentation order.
pub const RULES: &[&str] = &[
    "wall-clock-in-unit-path",
    "ambient-entropy",
    "unordered-iteration-in-results",
    "unsafe-without-safety-comment",
    "unwrap-in-library",
];

/// Ambient entropy sources: constructing randomness from any of these makes a
/// unit result depend on the machine instead of the `UnitKey`.
const AMBIENT_SOURCES: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
];

/// Hash-ordered container type names (std and the common `Fx*` aliases).
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Iterator-producing methods whose order is the hash order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// The audit result for one file.
pub(crate) struct FileAudit {
    /// Diagnostics, sorted by (line, col, rule).
    pub findings: Vec<Diagnostic>,
    /// Findings suppressed by a well-formed `audit:allow`.
    pub suppressed: usize,
}

/// One rule hit before suppression matching.
struct RawFinding {
    rule: &'static str,
    line: u32,
    col: u32,
    message: String,
}

/// A parsed `audit:allow` comment.
struct Allow {
    rule: String,
    line: u32,
    /// The raw directive, echoed in malformed/stale diagnostics.
    text: String,
    has_reason: bool,
    used: bool,
}

/// Per-file token view with the structural facts rules share.
struct Ctx<'a> {
    file: &'a SourceFile,
    code: Vec<&'a Token>,
    /// `in_test[i]`: code token `i` lies under a `#[test]`/`#[cfg(test)]` item.
    in_test: Vec<bool>,
    /// Named `fn` items as (name, start, end) code-token index ranges.
    fn_spans: Vec<(String, usize, usize)>,
}

impl<'a> Ctx<'a> {
    fn ident(&self, i: usize) -> Option<&str> {
        let t = self.code.get(i)?;
        (t.kind == Kind::Ident).then_some(t.text.as_str())
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.code
            .get(i)
            .is_some_and(|t| t.kind == Kind::Punct && t.text.len() == 1 && t.text.starts_with(c))
    }

    /// True when code tokens `i..i+2` spell `::`.
    fn is_path_sep(&self, i: usize) -> bool {
        self.is_punct(i, ':') && self.is_punct(i + 1, ':')
    }

    /// The innermost named function containing code token `i`.
    fn enclosing_fn(&self, i: usize) -> Option<&str> {
        self.fn_spans
            .iter()
            .filter(|(_, s, e)| (*s..=*e).contains(&i))
            .min_by_key(|(_, s, e)| e - s)
            .map(|(name, _, _)| name.as_str())
    }

    fn finding(&self, out: &mut Vec<RawFinding>, rule: &'static str, i: usize, message: String) {
        let t = self.code[i];
        out.push(RawFinding {
            rule,
            line: t.line,
            col: t.col,
            message,
        });
    }
}

/// Audit one file's source, returning findings with `file.rel` spans.
pub(crate) fn audit_file(file: &SourceFile, src: &str) -> FileAudit {
    let toks = lex(src);
    let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    let comments: Vec<&Token> = toks.iter().filter(|t| t.is_comment()).collect();
    let in_test = test_excluded(&code);
    let fn_spans = fn_spans(&code);
    let ctx = Ctx {
        file,
        code,
        in_test,
        fn_spans,
    };

    let mut raw = Vec::new();
    rule_wall_clock(&ctx, &mut raw);
    rule_ambient_entropy(&ctx, &mut raw);
    rule_unordered_iteration(&ctx, &mut raw);
    rule_unsafe(&ctx, &comments, &mut raw);
    rule_unwrap(&ctx, &mut raw);

    apply_allows(file, raw, parse_allows(&comments))
}

// ---------------------------------------------------------------------------
// Structural analysis
// ---------------------------------------------------------------------------

/// Index of the `}` matching the `{` at `open` (last token if unterminated).
fn match_brace(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (m, t) in code.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return m;
                    }
                }
                _ => {}
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Mark every code token covered by an item carrying a `test`-bearing attribute
/// (`#[cfg(test)] mod …`, `#[test] fn …`, `#[cfg(any(test, …))] …`).
fn test_excluded(code: &[&Token]) -> Vec<bool> {
    let n = code.len();
    let mut excl = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if !(code[i].kind == Kind::Punct
            && code[i].text == "#"
            && i + 1 < n
            && code[i + 1].text == "[")
        {
            i += 1;
            continue;
        }
        // Find the attribute's closing `]`, noting whether it mentions `test`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut has_test = false;
        while j < n {
            match (code[j].kind, code[j].text.as_str()) {
                (Kind::Punct, "[") => depth += 1,
                (Kind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (Kind::Ident, "test") => has_test = true,
                _ => {}
            }
            j += 1;
        }
        if j >= n {
            break;
        }
        if !has_test {
            i = j + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = j + 1;
        while k + 1 < n && code[k].text == "#" && code[k + 1].text == "[" {
            let mut depth = 0usize;
            while k < n {
                match code[k].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        // The item body is the first `{` at bracket depth 0; a `;` first means a
        // body-less item (`#[cfg(test)] use …;`).
        let mut depth = 0usize;
        let mut m = k;
        let mut body = None;
        while m < n {
            match code[m].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    body = Some(m);
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            m += 1;
        }
        let end = match body {
            Some(b) => match_brace(code, b),
            None => m.min(n - 1),
        };
        for slot in excl.iter_mut().take(end + 1).skip(i) {
            *slot = true;
        }
        i = end + 1;
    }
    excl
}

/// Collect named `fn` items with their body token ranges.
fn fn_spans(code: &[&Token]) -> Vec<(String, usize, usize)> {
    let n = code.len();
    let mut out = Vec::new();
    for i in 0..n {
        if !(code[i].kind == Kind::Ident && code[i].text == "fn") {
            continue;
        }
        let Some(name_tok) = code.get(i + 1) else {
            continue;
        };
        if name_tok.kind != Kind::Ident {
            continue;
        }
        // The body `{` is the first brace outside the parameter parens; a `;`
        // first means a trait-method declaration without a body.
        let mut depth = 0usize;
        let mut m = i + 2;
        while m < n {
            match code[m].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    out.push((name_tok.text.clone(), i, match_brace(code, m)));
                    break;
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            m += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn on_unit_path(file: &SourceFile) -> bool {
    UNIT_PATH_CRATES.contains(&file.crate_name.as_str())
        && file.role == Role::Library
        && !OFF_UNIT_PATH_MODULES.iter().any(|prefix| {
            file.rel == format!("{prefix}.rs") || file.rel.starts_with(&format!("{prefix}/"))
        })
}

/// Rule 1: no wall-clock reads on the unit-execution path.
fn rule_wall_clock(ctx: &Ctx<'_>, out: &mut Vec<RawFinding>) {
    if !on_unit_path(ctx.file) {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(ty) = ctx.ident(i) else { continue };
        if (ty == "Instant" || ty == "SystemTime")
            && ctx.is_path_sep(i + 1)
            && ctx.ident(i + 3) == Some("now")
        {
            ctx.finding(
                out,
                "wall-clock-in-unit-path",
                i,
                format!(
                    "`{ty}::now()` on the unit-execution path: unit results must be pure \
                     functions of their UnitKey; timing belongs in pim-bench or the CLI layer"
                ),
            );
        }
    }
}

/// Rule 2: no ambient entropy anywhere, and on the unit path RNGs may only be
/// constructed from an explicit seed (or inside a seed/stream helper).
fn rule_ambient_entropy(ctx: &Ctx<'_>, out: &mut Vec<RawFinding>) {
    let ambient_scope = matches!(ctx.file.role, Role::Library | Role::Bin);
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = ctx.ident(i) else { continue };
        if ambient_scope && AMBIENT_SOURCES.contains(&name) {
            ctx.finding(
                out,
                "ambient-entropy",
                i,
                format!(
                    "`{name}` draws entropy from the machine, not from the seed chain: \
                     all randomness must derive from an explicit experiment seed"
                ),
            );
            continue;
        }
        if !on_unit_path(ctx.file) {
            continue;
        }
        // RNG constructor `Type::ctor(…)`?
        if !(ctx.is_path_sep(i + 1) && ctx.is_punct(i + 4, '(')) {
            continue;
        }
        let Some(ctor) = ctx.ident(i + 3) else {
            continue;
        };
        let is_rng_ctor = (name == "RandomStream" && ctor == "new")
            || matches!(ctor, "seed_from_u64" | "from_seed" | "from_rng");
        if !is_rng_ctor {
            continue;
        }
        // Legal inside a seed/stream derivation helper…
        if ctx
            .enclosing_fn(i)
            .is_some_and(|f| f.contains("seed") || f.contains("stream"))
        {
            continue;
        }
        // …or when the constructor visibly consumes a seed value.
        let mut depth = 0usize;
        let mut m = i + 4;
        let mut seeded = false;
        while m < ctx.code.len() {
            match ctx.code[m].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if ctx.code[m].kind == Kind::Ident
                        && ctx.code[m].text.to_ascii_lowercase().contains("seed")
                    {
                        seeded = true;
                    }
                }
            }
            m += 1;
        }
        if !seeded {
            ctx.finding(
                out,
                "ambient-entropy",
                i,
                format!(
                    "`{name}::{ctor}` constructs an RNG without an explicit seed in scope: \
                     derive streams through the seed helpers (point_seed, replication_seed, \
                     spec::unit_seed) so unit results stay a pure function of their UnitKey"
                ),
            );
        }
    }
}

/// Rule 3: no iteration over hash-ordered containers on result paths.
fn rule_unordered_iteration(ctx: &Ctx<'_>, out: &mut Vec<RawFinding>) {
    if !on_unit_path(ctx.file) {
        return;
    }
    let n = ctx.code.len();
    // Pass 1: names bound to hash-ordered containers, from typed bindings
    // (`x: FxHashMap<…>`, struct fields, params) and inferred constructor
    // bindings (`let mut x = HashMap::new()`).
    let mut hash_names: Vec<String> = Vec::new();
    for i in 0..n {
        let Some(name) = ctx.ident(i) else { continue };
        if !HASH_TYPES.contains(&name) {
            continue;
        }
        // Typed: walk left over type syntax (`&`, `mut`, `<`, path segments) to
        // a single `:` preceded by the bound identifier.
        let mut j = i;
        while j > 0 {
            let t = ctx.code[j - 1];
            let part_of_type = (t.kind == Kind::Ident && t.text != "let")
                || t.kind == Kind::Lifetime
                || (t.kind == Kind::Punct && matches!(t.text.as_str(), "&" | "<" | ">" | ","));
            if !part_of_type {
                break;
            }
            j -= 1;
        }
        if j >= 2 && ctx.is_punct(j - 1, ':') && !ctx.is_punct(j - 2, ':') {
            if let Some(binder) = ctx.ident(j - 2) {
                hash_names.push(binder.to_string());
            }
        }
        // Inferred: `let [mut] x = FxHashMap::…`.
        if ctx.is_punct(i.wrapping_sub(1), '=') {
            if let Some(binder) = ctx.ident(i.wrapping_sub(2)) {
                hash_names.push(binder.to_string());
            }
        }
    }
    let is_hash = |name: &str| hash_names.iter().any(|h| h == name);

    // Pass 2a: `x.iter()`-family calls on a hash-bound name.
    for i in 0..n {
        if ctx.in_test[i] {
            continue;
        }
        let Some(name) = ctx.ident(i) else { continue };
        if !is_hash(name) {
            continue;
        }
        if ctx.is_punct(i + 1, '.') && ctx.is_punct(i + 3, '(') {
            if let Some(method) = ctx.ident(i + 2) {
                if HASH_ITER_METHODS.contains(&method) {
                    ctx.finding(
                        out,
                        "unordered-iteration-in-results",
                        i,
                        hash_iter_message(name, &format!(".{method}()")),
                    );
                }
            }
        }
    }
    // Pass 2b: `for … in [&]​[mut] [self.]x { … }`.
    for i in 0..n {
        if ctx.in_test[i] || ctx.ident(i) != Some("for") {
            continue;
        }
        // Find the `in` of this loop header (skip patterns; parens nest).
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < n {
            match ctx.code[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "in" if depth == 0 && ctx.code[j].kind == Kind::Ident => break,
                "{" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= n || ctx.code[j].text != "in" {
            continue;
        }
        // Collect the iterated expression up to the body `{`.
        let mut expr: Vec<&Token> = Vec::new();
        let mut m = j + 1;
        let mut depth = 0usize;
        while m < n {
            match ctx.code[m].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break,
                _ => {}
            }
            expr.push(ctx.code[m]);
            m += 1;
        }
        // Flag only a bare `[&][mut] [self.]name` tail — indexing, method calls
        // (`.len()`) and ranges are order-safe or covered by pass 2a.
        let names: Vec<&Token> = expr
            .iter()
            .copied()
            .filter(|t| t.kind == Kind::Ident && t.text != "mut" && t.text != "self")
            .collect();
        let puncts_ok = expr.iter().all(|t| {
            t.kind == Kind::Ident || (t.kind == Kind::Punct && matches!(t.text.as_str(), "&" | "."))
        });
        if puncts_ok && names.len() == 1 && is_hash(&names[0].text) {
            ctx.finding(
                out,
                "unordered-iteration-in-results",
                i,
                hash_iter_message(&names[0].text, "a `for` loop"),
            );
        }
    }
}

fn hash_iter_message(name: &str, how: &str) -> String {
    format!(
        "iteration over hash-ordered `{name}` via {how} on a result path: hash order is \
         not deterministic; use a BTreeMap/BTreeSet or sort before folding into results"
    )
}

/// Rule 4: every `unsafe` needs a `// SAFETY:` justification (tests included).
fn rule_unsafe(ctx: &Ctx<'_>, comments: &[&Token], out: &mut Vec<RawFinding>) {
    for i in 0..ctx.code.len() {
        if ctx.ident(i) != Some("unsafe") {
            continue;
        }
        let line = ctx.code[i].line;
        let justified = comments
            .iter()
            .any(|c| c.line + 3 >= line && c.line <= line && c.text.contains("SAFETY:"));
        if !justified {
            ctx.finding(
                out,
                "unsafe-without-safety-comment",
                i,
                "`unsafe` without a `// SAFETY:` comment justifying why the invariants hold"
                    .to_string(),
            );
        }
    }
}

/// Rule 5: no `unwrap()`/`expect()` in library code without a reviewed allow.
fn rule_unwrap(ctx: &Ctx<'_>, out: &mut Vec<RawFinding>) {
    if ctx.file.role != Role::Library {
        return;
    }
    for i in 0..ctx.code.len() {
        if ctx.in_test[i] || !ctx.is_punct(i, '.') {
            continue;
        }
        let Some(method) = ctx.ident(i + 1) else {
            continue;
        };
        if (method == "unwrap" || method == "expect") && ctx.is_punct(i + 2, '(') {
            ctx.finding(
                out,
                "unwrap-in-library",
                i + 1,
                format!(
                    "`{method}()` in library code can panic mid-batch: propagate the error \
                     (io_err for filesystem paths) or add `audit:allow(unwrap-in-library)` \
                     with the reason it cannot fail"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Parse `audit:allow` directives out of the comment tokens. Only comments that
/// *start* with the directive count, so prose mentioning the syntax is inert.
fn parse_allows(comments: &[&Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("audit:allow") {
            continue;
        }
        let rest = &body["audit:allow".len()..];
        let (rule, after) = match (rest.strip_prefix('('), rest.find(')')) {
            (Some(_), Some(close)) => (rest[1..close].trim().to_string(), &rest[close + 1..]),
            _ => (String::new(), ""),
        };
        let has_reason = after
            .trim_start()
            .strip_prefix(':')
            .is_some_and(|r| !r.trim().is_empty());
        out.push(Allow {
            rule,
            line: c.line,
            text: body.trim_end().to_string(),
            has_reason,
            used: false,
        });
    }
    out
}

/// Match findings against allows: suppress what a well-formed allow covers, then
/// lint the allows themselves (missing reason, unknown rule, stale).
fn apply_allows(file: &SourceFile, raw: Vec<RawFinding>, mut allows: Vec<Allow>) -> FileAudit {
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for f in raw {
        let covered = allows.iter_mut().find(|a| {
            a.has_reason
                && a.rule == f.rule
                && RULES.contains(&a.rule.as_str())
                && (a.line == f.line || a.line + 1 == f.line)
        });
        match covered {
            Some(a) => {
                a.used = true;
                suppressed += 1;
            }
            None => findings.push(Diagnostic::at(f.rule, &file.rel, f.line, f.col, f.message)),
        }
    }
    for a in &allows {
        if !RULES.contains(&a.rule.as_str()) {
            findings.push(Diagnostic::at(
                "malformed-allow",
                &file.rel,
                a.line,
                1,
                format!(
                    "`{}` names no audit rule (known rules: {})",
                    a.text,
                    RULES.join(", ")
                ),
            ));
        } else if !a.has_reason {
            findings.push(Diagnostic::at(
                "malformed-allow",
                &file.rel,
                a.line,
                1,
                format!(
                    "`{}` has no reason: write `audit:allow({}): <why this is sound>`",
                    a.text, a.rule
                ),
            ));
        } else if !a.used {
            findings.push(Diagnostic::at(
                "stale-allow",
                &file.rel,
                a.line,
                1,
                format!(
                    "`{}` suppresses nothing on this or the next line: the violation was \
                     fixed or moved — delete the allow",
                    a.text
                ),
            ));
        }
    }
    findings
        .sort_by(|a, b| (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str())));
    FileAudit {
        findings,
        suppressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lib_file(crate_name: &str) -> SourceFile {
        SourceFile {
            path: PathBuf::new(),
            rel: format!("crates/{crate_name}/src/lib.rs"),
            crate_name: crate_name.to_string(),
            role: Role::Library,
        }
    }

    fn rules_hit(crate_name: &str, src: &str) -> Vec<String> {
        audit_file(&lib_file(crate_name), src)
            .findings
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn wall_clock_fires_only_on_unit_path_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rules_hit("desim", src), vec!["wall-clock-in-unit-path"]);
        assert!(rules_hit("pim-bench", src).is_empty());
        assert!(rules_hit("pim-audit", src).is_empty());
    }

    #[test]
    fn off_unit_path_modules_are_exempt_inside_unit_path_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        // The serve module lives in pim-harness (a unit-path crate) but is
        // classified service surface: both the module file and any submodule
        // directory fall outside the unit path.
        for rel in [
            "crates/pim-harness/src/serve.rs",
            "crates/pim-harness/src/serve/daemon.rs",
        ] {
            let file = SourceFile {
                path: PathBuf::new(),
                rel: rel.to_string(),
                crate_name: "pim-harness".to_string(),
                role: Role::Library,
            };
            assert!(!on_unit_path(&file), "{rel}");
            assert!(audit_file(&file, src).findings.is_empty(), "{rel}");
        }
        // A sibling module with a merely similar name stays on the unit path.
        let file = SourceFile {
            path: PathBuf::new(),
            rel: "crates/pim-harness/src/server_x.rs".to_string(),
            crate_name: "pim-harness".to_string(),
            role: Role::Library,
        };
        assert!(on_unit_path(&file));
        assert_eq!(audit_file(&file, src).findings.len(), 1);
    }

    #[test]
    fn wall_clock_ignores_comments_strings_and_tests() {
        let src = r#"
            // Instant::now() in prose
            fn f() { let s = "Instant::now()"; }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let _ = Instant::now(); }
            }
        "#;
        assert!(rules_hit("desim", src).is_empty());
    }

    #[test]
    fn ambient_sources_fire_everywhere_outside_tests() {
        assert_eq!(
            rules_hit("pim-bench", "fn f() { let r = thread_rng(); }"),
            vec!["ambient-entropy"]
        );
    }

    #[test]
    fn unseeded_rng_construction_fires_on_unit_path() {
        assert_eq!(
            rules_hit(
                "pim-core",
                "fn build() { let r = RandomStream::new(42, 1); }"
            ),
            vec!["ambient-entropy"]
        );
        // Seed evidence in the arguments is enough.
        assert!(rules_hit(
            "pim-core",
            "fn build(seed: u64) { let r = RandomStream::new(seed, 1); }"
        )
        .is_empty());
        // …or being inside a seed/stream helper.
        assert!(rules_hit(
            "desim",
            "fn replication_seed(s: u64) -> u64 { StdRng::seed_from_u64(mix(s, 1)); 0 }"
        )
        .is_empty());
    }

    #[test]
    fn hash_iteration_fires_for_loops_and_iter_calls() {
        let src = "
            fn assemble(map: FxHashMap<u64, f64>) {
                for (k, v) in &map { emit(k, v); }
            }";
        assert_eq!(
            rules_hit("pim-harness", src),
            vec!["unordered-iteration-in-results"]
        );
        let src = "
            fn assemble() {
                let mut set = HashSet::new();
                let all: Vec<_> = set.iter().collect();
            }";
        assert_eq!(
            rules_hit("pim-harness", src),
            vec!["unordered-iteration-in-results"]
        );
    }

    #[test]
    fn hash_lookup_and_length_are_not_iteration() {
        let src = "
            fn ok(map: FxHashMap<u64, f64>, keys: &[u64]) {
                for k in keys { emit(map.get(k)); }
                for i in 0..map.len() { emit(i); }
                if map.contains_key(&1) {}
            }";
        assert!(rules_hit("pim-harness", src).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment_even_in_tests() {
        let with = "
            fn f() {
                // SAFETY: the buffer outlives the call.
                unsafe { go() }
            }";
        assert!(rules_hit("pim-mem", with).is_empty());
        let without = "#[cfg(test)] mod t { fn f() { unsafe { go() } } }";
        assert_eq!(
            rules_hit("pim-mem", without),
            vec!["unsafe-without-safety-comment"]
        );
    }

    #[test]
    fn unwrap_fires_in_library_but_not_bins_tests_or_doc_comments() {
        let src = "/// call `x.unwrap()` for effect\nfn f(x: Option<u32>) { x.unwrap(); x.expect(\"m\"); }";
        assert_eq!(
            rules_hit("desim", src),
            vec!["unwrap-in-library", "unwrap-in-library"]
        );
        let bin = SourceFile {
            path: PathBuf::new(),
            rel: "src/bin/cli.rs".into(),
            crate_name: "pim-repro".into(),
            role: Role::Bin,
        };
        assert!(audit_file(&bin, src).findings.is_empty());
        assert!(rules_hit("desim", "#[test]\nfn t() { None::<u32>.unwrap(); }").is_empty());
    }

    #[test]
    fn allows_suppress_and_are_linted() {
        // A reviewed allow on the line above suppresses.
        let good = "fn f(x: Option<u32>) {\n    // audit:allow(unwrap-in-library): checked above\n    x.unwrap();\n}";
        let audit = audit_file(&lib_file("desim"), good);
        assert!(audit.findings.is_empty());
        assert_eq!(audit.suppressed, 1);

        // No reason: the allow errors AND the finding stays.
        let bad = "fn f(x: Option<u32>) {\n    x.unwrap(); // audit:allow(unwrap-in-library)\n}";
        let rules = rules_hit("desim", bad);
        assert!(rules.contains(&"malformed-allow".to_string()), "{rules:?}");
        assert!(rules.contains(&"unwrap-in-library".to_string()));

        // Unknown rule.
        let unknown = "// audit:allow(made-up-rule): because\nfn f() {}";
        assert_eq!(rules_hit("desim", unknown), vec!["malformed-allow"]);

        // Stale: matches nothing.
        let stale = "// audit:allow(unwrap-in-library): nothing here\nfn f() {}";
        assert_eq!(rules_hit("desim", stale), vec!["stale-allow"]);
    }

    #[test]
    fn prose_mentioning_the_directive_is_inert() {
        let src = "/// Suppress with `// audit:allow(unwrap-in-library): reason`.\nfn f() {}";
        assert!(rules_hit("desim", src).is_empty());
    }
}
