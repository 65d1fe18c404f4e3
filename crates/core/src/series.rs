//! Figure/series containers and text rendering.

/// One curve: a label and y-values over the shared x-grid of its figure.
#[derive(Clone, Debug)]
pub struct Series {
    pub label: String,
    pub y: Vec<f64>,
}

impl Series {
    pub fn new(label: impl Into<String>, y: Vec<f64>) -> Self {
        Series {
            label: label.into(),
            y,
        }
    }

    /// Peak value and the x-index where it occurs.
    pub fn peak(&self) -> (usize, f64) {
        self.y
            .iter()
            .copied()
            .enumerate()
            .fold(
                (0, f64::NEG_INFINITY),
                |acc, (i, v)| if v > acc.1 { (i, v) } else { acc },
            )
    }
}

/// A figure: an x-grid (thread counts, usually) plus several series.
#[derive(Clone, Debug)]
pub struct Figure {
    pub title: String,
    pub xlabel: String,
    pub ylabel: String,
    pub x: Vec<usize>,
    pub series: Vec<Series>,
}

impl Figure {
    pub fn new(title: impl Into<String>, x: Vec<usize>) -> Self {
        Figure {
            title: title.into(),
            xlabel: "number of threads".into(),
            ylabel: "speedup".into(),
            x,
            series: Vec::new(),
        }
    }

    /// Add a curve; its length must match the x-grid.
    pub fn push(&mut self, s: Series) {
        assert_eq!(
            s.y.len(),
            self.x.len(),
            "series '{}' length mismatch",
            s.label
        );
        self.series.push(s);
    }

    /// Find a series by label.
    pub fn get(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as a fixed-width ASCII table (x rows, one column per series).
    pub fn to_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!("# y: {}\n", self.ylabel));
        let w = 22usize;
        out.push_str(&format!(
            "{:>8}",
            self.xlabel.split_whitespace().last().unwrap_or("x")
        ));
        for s in &self.series {
            let lbl = if s.label.len() > w {
                &s.label[..w]
            } else {
                &s.label
            };
            out.push_str(&format!(" {lbl:>w$}"));
        }
        out.push('\n');
        for (i, &x) in self.x.iter().enumerate() {
            out.push_str(&format!("{x:>8}"));
            for s in &self.series {
                out.push_str(&format!(" {:>w$.2}", s.y[i]));
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`x,label1,label2,...`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push('x');
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        for (i, &x) in self.x.iter().enumerate() {
            out.push_str(&x.to_string());
            for s in &self.series {
                out.push_str(&format!(",{:.4}", s.y[i]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("demo", vec![1, 11, 21]);
        f.push(Series::new("a", vec![1.0, 9.5, 17.0]));
        f.push(Series::new("b", vec![1.0, 8.0, 21.5]));
        f
    }

    #[test]
    fn ascii_contains_all_points() {
        let t = sample().to_ascii();
        assert!(t.contains("demo"));
        assert!(t.contains("9.50"));
        assert!(t.contains("21.50"));
        assert_eq!(t.lines().count(), 2 + 1 + 3);
    }

    #[test]
    fn csv_roundtrips_grid() {
        let c = sample().to_csv();
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert!(lines[1].starts_with("1,"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn peak_found() {
        let f = sample();
        assert_eq!(f.get("a").unwrap().peak(), (2, 17.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let mut f = Figure::new("x", vec![1, 2]);
        f.push(Series::new("bad", vec![1.0]));
    }
}
