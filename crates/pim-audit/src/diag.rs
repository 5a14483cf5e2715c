//! Diagnostics: the finding type, the human renderer, and the JSON renderer.
//!
//! This module is the *shared* diagnostics pipeline: the `pim-audit` binary and
//! `pim-tradeoffs spec check` both print through [`render_human`]/[`summary_line`],
//! so every checker in the workspace reports spans, severities and summaries in
//! one format.

/// How serious a diagnostic is. Every audit finding is currently an error
/// (`--deny` gates on any finding); `Warning` exists so future advisory rules
/// and non-gating checkers can share the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One finding: a rule violation (or a checker failure) anchored to a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule (or checker) that produced the finding, e.g. `wall-clock-in-unit-path`.
    pub rule: String,
    pub severity: Severity,
    /// Workspace-root-relative path, forward slashes on every platform.
    pub file: String,
    /// 1-based line; `0` means the diagnostic concerns the whole file.
    pub line: u32,
    /// 1-based column; `0` when unknown.
    pub col: u32,
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic anchored to a `file:line:col` span.
    pub fn at(rule: &str, file: &str, line: u32, col: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            severity: Severity::Error,
            file: file.to_string(),
            line,
            col,
            message,
        }
    }

    /// A diagnostic about a whole file (no line span) — spec-check failures,
    /// unreadable inputs, and the like.
    pub fn file_level(rule: &str, file: &str, message: String) -> Diagnostic {
        Diagnostic::at(rule, file, 0, 0, message)
    }

    /// `file:line:col` (omitting zero parts), the clickable prefix of the
    /// human rendering.
    pub fn span(&self) -> String {
        match (self.line, self.col) {
            (0, _) => self.file.clone(),
            (l, 0) => format!("{}:{l}", self.file),
            (l, c) => format!("{}:{l}:{c}", self.file),
        }
    }
}

/// Render diagnostics for a terminal, one line each:
/// `file:line:col: error[rule]: message`.
pub fn render_human(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&format!(
            "{}: {}[{}]: {}\n",
            d.span(),
            d.severity.label(),
            d.rule,
            d.message
        ));
    }
    out
}

/// The one-line summary every checker ends with: what was checked, how many
/// findings, and how many findings were suppressed by reviewed allows.
pub fn summary_line(checked: &str, findings: usize, suppressed: usize) -> String {
    let mut line = format!(
        "{checked}: {findings} finding{}",
        if findings == 1 { "" } else { "s" }
    );
    if suppressed > 0 {
        line.push_str(&format!(", {suppressed} suppressed by audit:allow"));
    }
    line
}

/// Schema version of the JSON rendering ([`render_json`]).
pub(crate) const JSON_SCHEMA_VERSION: u32 = 1;

/// Render a machine-readable report: pretty JSON, stable field order, findings
/// in input order (callers sort by span first), trailing newline. Hand-rolled
/// so the auditor stays dependency-free; the escaping covers everything that
/// can appear in paths and messages.
pub fn render_json(diags: &[Diagnostic], files_scanned: usize, suppressed: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"version\": {JSON_SCHEMA_VERSION},\n"));
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"suppressed\": {suppressed},\n"));
    out.push_str(&format!(
        "  \"findings\": {}",
        if diags.is_empty() { "[]" } else { "[" }
    ));
    for (i, d) in diags.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {");
        out.push_str(&format!("\"rule\": \"{}\", ", json_escape(&d.rule)));
        out.push_str(&format!("\"severity\": \"{}\", ", d.severity.label()));
        out.push_str(&format!("\"file\": \"{}\", ", json_escape(&d.file)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"column\": {}, ", d.col));
        out.push_str(&format!("\"message\": \"{}\"", json_escape(&d.message)));
        out.push('}');
    }
    if !diags.is_empty() {
        out.push_str("\n  ]");
    }
    out.push_str("\n}\n");
    out
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rendering_includes_span_rule_and_message() {
        let d = Diagnostic::at(
            "unwrap-in-library",
            "crates/x/src/lib.rs",
            10,
            5,
            "bare unwrap".into(),
        );
        assert_eq!(
            render_human(&[d]),
            "crates/x/src/lib.rs:10:5: error[unwrap-in-library]: bare unwrap\n"
        );
    }

    #[test]
    fn file_level_diagnostics_omit_the_span() {
        let d = Diagnostic::file_level("spec-check", "examples/specs/bad.json", "boom".into());
        assert_eq!(
            render_human(&[d]),
            "examples/specs/bad.json: error[spec-check]: boom\n"
        );
    }

    #[test]
    fn json_rendering_is_parseable_shape_and_escapes() {
        let d = Diagnostic::at("r", "a\\b.rs", 1, 2, "say \"hi\"\n".into());
        let json = render_json(&[d], 3, 1);
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"suppressed\": 1"));
        assert!(json.contains("\"file\": \"a\\\\b.rs\""));
        assert!(json.contains("\"message\": \"say \\\"hi\\\"\\n\""));
        assert!(json.ends_with("\n"));
    }

    #[test]
    fn empty_findings_render_as_empty_array() {
        let json = render_json(&[], 0, 0);
        assert!(json.contains("\"findings\": []"));
    }

    #[test]
    fn summary_counts_read_naturally() {
        assert_eq!(summary_line("88 files", 0, 0), "88 files: 0 findings");
        assert_eq!(summary_line("1 file", 1, 0), "1 file: 1 finding");
        assert_eq!(
            summary_line("9 files", 2, 3),
            "9 files: 2 findings, 3 suppressed by audit:allow"
        );
    }
}
