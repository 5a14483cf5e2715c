//! Report formatting: turning sweep results into the rows behind each figure.
//!
//! `pim-tradeoffs sweep` and the `design_space` example print the Figure 5 table as
//! Markdown; ARCHITECTURE.md maps each figure to the scenario that regenerates it.

use crate::experiment::SweepResult;
use std::fmt::Write as _;

/// Figure 5: performance gain of the test system versus `%WL`, one column per node count.
pub fn figure5_gain_table(result: &SweepResult) -> String {
    let mut out = String::new();
    let mut header = String::from("pct_lwp_work");
    for &n in &result.spec.node_counts {
        let _ = write!(header, ",gain_n{n}");
    }
    out.push_str(&header);
    out.push('\n');
    for &wl in &result.spec.lwp_fractions {
        let _ = write!(out, "{:.0}", wl * 100.0);
        for &n in &result.spec.node_counts {
            let gain = result.point(n, wl).map(|p| p.gain).unwrap_or(f64::NAN);
            let _ = write!(out, ",{gain:.4}");
        }
        out.push('\n');
    }
    out
}

/// Figure 6: unnormalized response time (ns) versus node count, one column per `%WL`.
pub fn figure6_response_table(result: &SweepResult) -> String {
    let mut out = String::new();
    let mut header = String::from("nodes");
    for &wl in &result.spec.lwp_fractions {
        let _ = write!(header, ",rt_ns_wl{:.0}", wl * 100.0);
    }
    out.push_str(&header);
    out.push('\n');
    for &n in &result.spec.node_counts {
        let _ = write!(out, "{n}");
        for &wl in &result.spec.lwp_fractions {
            let t = result.point(n, wl).map(|p| p.test_ns).unwrap_or(f64::NAN);
            let _ = write!(out, ",{t:.1}");
        }
        out.push('\n');
    }
    out
}

/// Figure 7: normalized runtime versus node count, one column per `%WL`.
pub fn figure7_relative_table(result: &SweepResult) -> String {
    let mut out = String::new();
    let mut header = String::from("nodes");
    for &wl in &result.spec.lwp_fractions {
        let _ = write!(header, ",rel_time_wl{:.0}", wl * 100.0);
    }
    out.push_str(&header);
    out.push('\n');
    for &n in &result.spec.node_counts {
        let _ = write!(out, "{n}");
        for &wl in &result.spec.lwp_fractions {
            let t = result
                .point(n, wl)
                .map(|p| p.relative_time)
                .unwrap_or(f64::NAN);
            let _ = write!(out, ",{t:.5}");
        }
        out.push('\n');
    }
    out
}

/// A generic markdown rendering of a CSV table (first line is the header).
pub fn csv_to_markdown(csv: &str) -> String {
    let mut lines = csv.lines();
    let Some(header) = lines.next() else {
        return String::new();
    };
    let cols = header.split(',').count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| {} |",
        header.split(',').collect::<Vec<_>>().join(" | ")
    );
    let _ = writeln!(out, "|{}", "---|".repeat(cols));
    for line in lines {
        let _ = writeln!(
            out,
            "| {} |",
            line.split(',').collect::<Vec<_>>().join(" | ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::experiment::{run_sweep, SweepSpec};
    use crate::system::EvalMode;

    fn small_result() -> SweepResult {
        let spec = SweepSpec {
            node_counts: vec![1, 4, 32],
            lwp_fractions: vec![0.0, 0.5, 1.0],
        };
        run_sweep(SystemConfig::table1(), &spec, EvalMode::Expected, 2)
    }

    #[test]
    fn figure5_table_has_expected_shape() {
        let csv = figure5_gain_table(&small_result());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 3, "header plus one row per %WL");
        assert!(lines[0].starts_with("pct_lwp_work,gain_n1,gain_n4,gain_n32"));
        // The 100% LWP / 32-node cell holds gain 10.24.
        assert!(lines[3].contains("10.24"));
    }

    #[test]
    fn figure6_table_reports_nanoseconds() {
        let csv = figure6_response_table(&small_result());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 3, "header plus one row per node count");
        // Control time is 4e8 ns; the 0% column equals it on every row.
        assert!(lines[1].contains("400000000.0"));
    }

    #[test]
    fn figure7_table_is_normalized() {
        let csv = figure7_relative_table(&small_result());
        // 0% LWP column is always exactly 1.
        for line in csv.lines().skip(1) {
            let first_val: f64 = line.split(',').nth(1).unwrap().parse().unwrap();
            assert!((first_val - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn markdown_rendering_preserves_cells() {
        let csv = "a,b\n1,2\n3,4\n";
        let md = csv_to_markdown(csv);
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    fn markdown_of_empty_csv_is_empty() {
        assert_eq!(csv_to_markdown(""), "");
    }
}
