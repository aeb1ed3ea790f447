//! Plain-text table rendering for the experiment binaries.

use std::fmt;

/// A simple fixed-width text table mirroring the rows of a paper figure.
///
/// # Examples
///
/// ```
/// use mvs_metrics::TextTable;
///
/// let mut t = TextTable::new(vec!["scenario", "speedup"]);
/// t.row(vec!["S1".into(), format!("{:.2}x", 6.85)]);
/// let rendered = t.to_string();
/// assert!(rendered.contains("S1"));
/// assert!(rendered.contains("6.85x"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "table needs at least one column");
        TextTable {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{c:<w$}")?;
            }
            writeln!(f)
        };
        render(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["one".into(), "1".into()]);
        t.row(vec!["two,three".into(), "2\"".into()]);
        t
    }

    #[test]
    fn display_aligns_columns() {
        let s = sample().to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("one"));
    }

    #[test]
    #[should_panic(expected = "row width must match")]
    fn rejects_ragged_rows() {
        TextTable::new(vec!["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn rejects_empty_headers() {
        TextTable::new(Vec::<String>::new());
    }

    #[test]
    fn len_counts_rows() {
        assert_eq!(sample().len(), 2);
        assert!(!sample().is_empty());
    }
}
