//! Plain-text and CSV rendering for experiment output.

use core::fmt;

/// A simple aligned text table (and CSV serializer).
///
/// # Examples
///
/// ```
/// use densekv::report::TextTable;
///
/// let mut t = TextTable::new(vec!["config".into(), "tps".into()]);
/// t.row(vec!["Mercury-32".into(), "32.7M".into()]);
/// let text = t.to_string();
/// assert!(text.contains("Mercury-32"));
/// assert!(t.to_csv().starts_with("config,tps\n"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title(mut self, title: &str) -> Self {
        self.title = Some(title.to_owned());
        self
    }

    /// Appends a row; short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than the header has columns.
    pub fn row(&mut self, mut cells: Vec<String>) {
        assert!(
            cells.len() <= self.header.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.header.len()
        );
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[cfg(test)]
    pub(crate) fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders as CSV (header first). Cells containing commas or quotes
    /// are quoted.
    pub fn to_csv(&self) -> String {
        fn escape(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        if let Some(title) = &self.title {
            writeln!(f, "{title}")?;
        }
        let line = |f: &mut fmt::Formatter<'_>| {
            for w in &widths {
                write!(f, "+{}", "-".repeat(w + 2))?;
            }
            writeln!(f, "+")
        };
        line(f)?;
        for (i, h) in self.header.iter().enumerate() {
            write!(f, "| {h:width$} ", width = widths[i])?;
        }
        writeln!(f, "|")?;
        line(f)?;
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "| {cell:>width$} ", width = widths[i])?;
            }
            writeln!(f, "|")?;
        }
        line(f)
    }
}

/// Formats a count with engineering suffixes (`1.23M`, `45.6K`).
pub(crate) fn si(value: f64) -> String {
    let abs = value.abs();
    if abs >= 1e9 {
        format!("{:.2}G", value / 1e9)
    } else if abs >= 1e6 {
        format!("{:.2}M", value / 1e6)
    } else if abs >= 1e3 {
        format!("{:.2}K", value / 1e3)
    } else {
        format!("{value:.2}")
    }
}

/// Formats a byte size the way the paper labels its x-axes
/// (`64`, `1K`, `1M`).
pub(crate) fn size_label(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        bytes.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["a".into(), "bb".into()]).with_title("T");
        t.row(vec!["xxx".into(), "1".into()]);
        t.row(vec!["y".into()]);
        let s = t.to_string();
        assert!(s.starts_with("T\n"));
        assert!(s.contains("| xxx |"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new(vec!["a,b".into(), "c".into()]);
        t.row(vec!["say \"hi\"".into(), "2".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row has")]
    fn oversized_row_panics() {
        let mut t = TextTable::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn si_suffixes() {
        assert_eq!(si(32_700_000.0), "32.70M");
        assert_eq!(si(54_770.0), "54.77K");
        assert_eq!(si(12.3), "12.30");
        assert_eq!(si(2.5e9), "2.50G");
    }

    #[test]
    fn size_labels_match_paper_axis() {
        assert_eq!(size_label(64), "64");
        assert_eq!(size_label(1 << 10), "1K");
        assert_eq!(size_label(512 << 10), "512K");
        assert_eq!(size_label(1 << 20), "1M");
    }
}
