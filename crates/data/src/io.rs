//! Loading and saving relations as delimited text.
//!
//! A downstream user's data rarely starts as `Vec<u64>`s; this module
//! reads and writes relations as CSV/TSV-style text with one tuple per
//! line. Values must be unsigned integers (the engine is
//! integer-encoded; dictionary-encode strings upstream).

use crate::relation::{Relation, Value};
use std::io::{BufWriter, Write};
use std::path::Path;

/// An I/O or parse failure while reading a relation.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "relation I/O error: {e}"),
            IoError::Parse { line, message } => {
                write!(f, "relation parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parse a relation from delimited text: one tuple per line, values
/// separated by `delim`, `#`-prefixed lines and blank lines ignored.
/// The arity is fixed by the first data line.
fn parse_relation(text: &str, delim: char) -> Result<Relation, IoError> {
    let mut rel: Option<Relation> = None;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut row: Vec<Value> = Vec::new();
        for field in line.split(delim) {
            let field = field.trim();
            row.push(field.parse::<Value>().map_err(|e| IoError::Parse {
                line: idx + 1,
                message: format!("bad value {field:?}: {e}"),
            })?);
        }
        match &mut rel {
            None => rel = Some(Relation::from_rows(row.len(), [row])),
            Some(r) => {
                if row.len() != r.arity() {
                    return Err(IoError::Parse {
                        line: idx + 1,
                        message: format!(
                            "arity mismatch: expected {}, found {}",
                            r.arity(),
                            row.len()
                        ),
                    });
                }
                r.push(&row);
            }
        }
    }
    rel.ok_or(IoError::Parse {
        line: 0,
        message: "no data lines".into(),
    })
}

/// Read a relation from a file; the delimiter is inferred from the
/// extension (`.tsv` → tab, anything else → comma).
pub fn read_relation(path: impl AsRef<Path>) -> Result<Relation, IoError> {
    let path = path.as_ref();
    let delim = if path.extension().is_some_and(|e| e == "tsv") {
        '\t'
    } else {
        ','
    };
    let text = std::fs::read_to_string(path)?;
    parse_relation(&text, delim)
}

/// Write a relation to a file (delimiter by extension, as in
/// [`read_relation`]).
pub fn write_relation(rel: &Relation, path: impl AsRef<Path>) -> Result<(), IoError> {
    let path = path.as_ref();
    let delim = if path.extension().is_some_and(|e| e == "tsv") {
        '\t'
    } else {
        ','
    };
    let file = std::fs::File::create(path)?;
    let mut out = BufWriter::new(file);
    for row in rel.iter() {
        let mut first = true;
        for v in row {
            if !first {
                write!(out, "{delim}")?;
            }
            write!(out, "{v}")?;
            first = false;
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_csv() {
        let r = parse_relation("1,2\n3,4\n", ',').expect("valid");
        assert_eq!(r.to_rows(), vec![vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn comments_blanks_whitespace() {
        let r = parse_relation("# header\n\n 1 , 2 \n#x\n3,4", ',').expect("valid");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arity_mismatch_reported_with_line() {
        let e = parse_relation("1,2\n3\n", ',').unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 2") && msg.contains("arity"), "{msg}");
    }

    #[test]
    fn bad_value_reported() {
        let e = parse_relation("1,x\n", ',').unwrap_err();
        assert!(e.to_string().contains("bad value"));
    }

    #[test]
    fn empty_input_is_error() {
        assert!(parse_relation("# only comments\n", ',').is_err());
    }

    #[test]
    fn file_roundtrip_csv_and_tsv() {
        let rel = crate::generate::uniform(3, 50, 100, 7);
        let dir = std::env::temp_dir().join("parqp_io_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        for name in ["r.csv", "r.tsv"] {
            let path = dir.join(name);
            write_relation(&rel, &path).expect("write");
            let back = read_relation(&path).expect("read");
            assert_eq!(back, rel, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
