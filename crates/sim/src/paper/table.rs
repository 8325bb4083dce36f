//! Plain-text table rendering for the paper's exhibits.
//!
//! The paper marks failing cells with an asterisk and the tightest correct
//! method in boldface; terminals have no bold in plain text, so we mark the
//! winner with a trailing `^`.

/// Renders a fixed-width table: a header row and data rows.
///
/// Column widths are sized to the longest cell. Columns are left-aligned
/// for the first `left_cols` columns and right-aligned after.
pub fn render(header: &[&str], rows: &[Vec<String>], left_cols: usize) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[&str], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i < left_cols {
                out.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                out.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
        }
        out.push('\n');
    };
    fmt_row(header, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(&row.iter().map(String::as_str).collect::<Vec<_>>(), &mut out);
    }
    out
}

/// Formats a correctness fraction the way the paper prints it: two decimal
/// places, `*` appended when below the target, `^` appended when this cell
/// is the boldface (tightest correct) winner.
pub fn fraction_cell(fraction: f64, target: f64, winner: bool) -> String {
    let mut s = format!("{fraction:.2}");
    if fraction < target {
        s.push('*');
    }
    if winner {
        s.push('^');
    }
    s
}

/// Formats a median ratio in the paper's scientific notation (`4.55e-02`).
pub fn ratio_cell(ratio: f64, correct: bool, winner: bool) -> String {
    let mut s = format!("{ratio:.2e}");
    if !correct {
        s.push('*');
    }
    if winner {
        s.push('^');
    }
    s
}

/// Formats seconds in compact human units for the narrative outputs.
pub fn human_secs(secs: f64) -> String {
    if secs < 120.0 {
        format!("{secs:.0} s")
    } else if secs < 7200.0 {
        format!("{:.1} min", secs / 60.0)
    } else if secs < 172_800.0 {
        format!("{:.1} h", secs / 3600.0)
    } else {
        format!("{:.1} days", secs / 86_400.0)
    }
}

/// A crude log-scale ASCII plot for two series (the figure exhibits).
///
/// Each sample becomes one output row: timestamp, value columns, and a bar
/// chart of the first series on a log axis.
pub fn ascii_log_plot(
    labels: (&str, &str),
    series: &[(u64, Option<f64>, Option<f64>)],
    width: usize,
) -> String {
    let max = series
        .iter()
        .flat_map(|(_, a, b)| [a, b])
        .filter_map(|v| *v)
        .fold(1.0f64, f64::max);
    let log_max = (max + 1.0).ln();
    let bar = |v: Option<f64>, ch: char| -> String {
        match v {
            Some(v) => {
                let frac = ((v + 1.0).ln() / log_max).clamp(0.0, 1.0);
                let n = (frac * width as f64).round() as usize;
                ch.to_string().repeat(n.max(1))
            }
            None => "-".to_string(),
        }
    };
    let mut out = format!(
        "log-scale bounds: '#' = {}, '+' = {}\n",
        labels.0, labels.1
    );
    for (t, a, b) in series {
        out.push_str(&format!(
            "{t:>12}  {:>12}  {:>12}  |{}\n",
            a.map_or("-".into(), |v| format!("{v:.0}")),
            b.map_or("-".into(), |v| format!("{v:.0}")),
            bar(*a, '#'),
        ));
        out.push_str(&format!("{:>12}  {:>12}  {:>12}  |{}\n", "", "", "", bar(*b, '+')));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let header = ["Machine", "Queue", "Frac"];
        let rows = vec![
            vec!["datastar".into(), "normal".into(), "0.95".into()],
            vec!["lanl".into(), "short".into(), "0.91*".into()],
        ];
        let out = render(&header, &rows, 2);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Machine"));
        assert!(lines[2].contains("datastar"));
        // Right-aligned numeric column.
        assert!(lines[2].trim_end().ends_with("0.95"));
        assert!(lines[3].trim_end().ends_with("0.91*"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn render_rejects_ragged_rows() {
        render(&["a", "b"], &[vec!["only-one".to_string()]], 1);
    }

    #[test]
    fn cells_carry_markers() {
        assert_eq!(fraction_cell(0.97, 0.95, false), "0.97");
        assert_eq!(fraction_cell(0.91, 0.95, false), "0.91*");
        assert_eq!(fraction_cell(0.97, 0.95, true), "0.97^");
        assert_eq!(ratio_cell(0.0455, true, false), "4.55e-2");
        assert_eq!(ratio_cell(0.0455, false, false), "4.55e-2*");
    }

    #[test]
    fn human_seconds() {
        assert_eq!(human_secs(12.0), "12 s");
        assert_eq!(human_secs(600.0), "10.0 min");
        assert_eq!(human_secs(7200.0), "2.0 h");
        assert_eq!(human_secs(345_600.0), "4.0 days");
    }

    #[test]
    fn ascii_plot_handles_missing_values() {
        let series = vec![(0u64, Some(10.0), None), (3600, Some(100.0), Some(5.0))];
        let out = ascii_log_plot(("a", "b"), &series, 40);
        assert!(out.contains('#'));
        assert!(out.contains('+'));
        assert!(out.contains('-'));
    }
}
