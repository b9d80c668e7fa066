//! A deliberately tiny TOML subset parser — enough for the analyzer's own
//! data files (`analysis/locks.toml`, `analysis/seed_policy.toml`,
//! `analysis/unsafe.toml`) without pulling in a dependency.
//!
//! Supported: `#` comments, `key = value` with string / integer / boolean /
//! inline string-array values, `[table]` headers and `[[array-of-tables]]`
//! headers (single-segment names only). Anything else is a parse error —
//! these files are machine-maintained, so strictness beats leniency.

use std::collections::BTreeMap;

/// A parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A basic `"…"` string (no escape processing beyond `\"` and `\\`).
    Str(String),
    /// A decimal integer.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// An inline array of strings: `["a", "b"]`.
    StrArray(Vec<String>),
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string-array payload, if this is an array.
    pub fn as_str_array(&self) -> Option<&[String]> {
        match self {
            Value::StrArray(a) => Some(a),
            _ => None,
        }
    }
}

/// One `key = value` table.
pub type Table = BTreeMap<String, Value>;

/// A parsed document: top-level keys, named tables, and arrays of tables.
#[derive(Debug, Default)]
pub struct Doc {
    /// Keys above the first header.
    pub root: Table,
    /// `[name]` tables.
    pub tables: BTreeMap<String, Table>,
    /// `[[name]]` arrays, in file order, each entry with the 1-based line of
    /// its header.
    pub arrays: BTreeMap<String, Vec<(u32, Table)>>,
}

/// Parses a document; errors carry the 1-based line number.
pub fn parse(text: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    // Which table new keys land in: root, a named table, or the last entry
    // of a named array.
    enum Target {
        Root,
        Table(String),
        Array(String),
    }
    let mut target = Target::Root;

    for (idx, raw_line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            let name = name.trim().to_string();
            doc.arrays
                .entry(name.clone())
                .or_default()
                .push((lineno as u32, Table::new()));
            target = Target::Array(name);
        } else if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let name = name.trim().to_string();
            if doc.tables.contains_key(&name) {
                return Err(format!("line {lineno}: duplicate table [{name}]"));
            }
            doc.tables.insert(name.clone(), Table::new());
            target = Target::Table(name);
        } else if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_string();
            let value = parse_value(value.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
            let table = match &target {
                Target::Root => &mut doc.root,
                Target::Table(name) => match doc.tables.get_mut(name) {
                    Some(table) => table,
                    None => return Err(format!("line {lineno}: internal: lost table [{name}]")),
                },
                Target::Array(name) => match doc.arrays.get_mut(name).and_then(|v| v.last_mut()) {
                    Some((_, table)) => table,
                    None => return Err(format!("line {lineno}: internal: lost entry [[{name}]]")),
                },
            };
            if table.insert(key.clone(), value).is_some() {
                return Err(format!("line {lineno}: duplicate key `{key}`"));
            }
        } else {
            return Err(format!(
                "line {lineno}: expected `key = value` or a [header]"
            ));
        }
    }
    Ok(doc)
}

/// Strips a `#` comment, respecting `"…"` strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(text: &str) -> Result<Value, String> {
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) {
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                other => return Err(format!("only string arrays are supported, got {other:?}")),
            }
        }
        return Ok(Value::StrArray(items));
    }
    if let Some(inner) = text.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string `{text}`"))?;
        return Ok(Value::Str(
            inner.replace("\\\"", "\"").replace("\\\\", "\\"),
        ));
    }
    text.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("unsupported value `{text}`"))
}

/// Splits an inline array body on commas outside strings.
fn split_top_level(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in text.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        escaped = false;
    }
    parts.push(&text[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_values() {
        let doc = parse(
            "version = 1  # comment\n\n[counts]\npanic_surface = 3\n\n[[violation]]\nrule = \"x\"\nok = true\nfns = [\"a\", \"b\"]\n[[violation]]\nrule = \"y # not a comment\"\n",
        )
        .unwrap();
        assert_eq!(doc.root["version"].as_int(), Some(1));
        assert_eq!(doc.tables["counts"]["panic_surface"].as_int(), Some(3));
        let violations = &doc.arrays["violation"];
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].0, 6);
        assert_eq!(violations[0].1["rule"].as_str(), Some("x"));
        assert_eq!(
            violations[0].1["fns"].as_str_array().unwrap(),
            ["a".to_string(), "b".to_string()]
        );
        assert_eq!(violations[1].0, 10);
        assert_eq!(violations[1].1["rule"].as_str(), Some("y # not a comment"));
    }

    #[test]
    fn rejects_garbage_with_line_numbers() {
        let err = parse("ok = 1\nnot a kv line\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(parse("dup = 1\ndup = 2\n")
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse("[t]\n[t]\n").unwrap_err().contains("duplicate table"));
        assert!(parse("x = \"unterminated\n")
            .unwrap_err()
            .contains("unterminated"));
    }

    #[test]
    fn quote_roundtrips_specials() {
        // A basic string carrying escaped quotes and backslashes parses back
        // to the text it quotes.
        let doc = parse("k = \"a \\\"b\\\" \\\\ c\"\n").unwrap();
        assert_eq!(doc.root["k"].as_str(), Some("a \"b\" \\ c"));
    }
}
