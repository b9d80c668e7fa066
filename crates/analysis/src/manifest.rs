//! The checked manifests: the declared lock order (`analysis/locks.toml`),
//! the versioned RNG seed policy (`analysis/seed_policy.toml`), and the
//! audited unsafe scopes (`analysis/unsafe.toml`).
//!
//! All three files are part of the reviewed source tree: changing a lock
//! order, blessing a new seed-derivation site, or widening the unsafe
//! surface is a diff a reviewer sees, not a convention a refactor silently
//! breaks. An entry that matches nothing in the workspace is itself a
//! finding (see [`crate::engine`]), so the files cannot go stale either.

use crate::toml_lite::{parse, Doc};
use std::path::Path;

/// One declared lock class: a receiver pattern within one file, with its
/// acquisition rank. A lock may only be acquired while every held lock has a
/// **strictly lower** rank.
#[derive(Debug, Clone)]
pub struct LockClass {
    /// Human name of the class (reporting only).
    pub name: String,
    /// Workspace-relative file the class applies to.
    pub file: String,
    /// Receiver-chain prefix, as rendered by the scanner (`self.draw`,
    /// `self.shards`); indexing renders as `[_]` and prefix-matches.
    pub receiver: String,
    /// Acquisition rank: lower ranks are acquired first (outermost).
    pub rank: i64,
    /// Line of the entry's `[[class]]` header (0 when built in code).
    pub line: u32,
}

/// The declared lock order.
#[derive(Debug, Clone, Default)]
pub struct LockManifest {
    classes: Vec<LockClass>,
}

impl LockManifest {
    /// Loads `analysis/locks.toml` under `root`; a missing file is an empty
    /// manifest (every nested acquisition is then a finding).
    pub fn load(root: &Path) -> Result<LockManifest, String> {
        let path = root.join("analysis/locks.toml");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(LockManifest::default());
        };
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut classes = Vec::new();
        for (line, entry) in doc.arrays.get("class").map(|v| v.as_slice()).unwrap_or(&[]) {
            classes.push(LockClass {
                name: entry
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or("lock class missing `name`")?
                    .to_string(),
                file: entry
                    .get("file")
                    .and_then(|v| v.as_str())
                    .ok_or("lock class missing `file`")?
                    .to_string(),
                receiver: entry
                    .get("receiver")
                    .and_then(|v| v.as_str())
                    .ok_or("lock class missing `receiver`")?
                    .to_string(),
                rank: entry
                    .get("rank")
                    .and_then(|v| v.as_int())
                    .ok_or("lock class missing integer `rank`")?,
                line: *line,
            });
        }
        Ok(LockManifest { classes })
    }

    /// Builds a manifest from `(file, receiver, rank)` triples (tests).
    pub fn from_entries(entries: Vec<(String, String, i64)>) -> LockManifest {
        LockManifest {
            classes: entries
                .into_iter()
                .map(|(file, receiver, rank)| LockClass {
                    name: receiver.clone(),
                    file,
                    receiver,
                    rank,
                    line: 0,
                })
                .collect(),
        }
    }

    /// The declared class for `receiver` in `file`, if any. Receivers match
    /// by prefix so `self.shards[_]` matches a `self.shards` class.
    pub fn class_of(&self, file: &str, receiver: &str) -> Option<&LockClass> {
        self.classes
            .iter()
            .find(|c| c.file == file && receiver.starts_with(c.receiver.as_str()))
    }

    /// All declared classes.
    pub fn classes(&self) -> &[LockClass] {
        &self.classes
    }
}

/// One blessed seed-policy location: RNG construction/drawing inside the
/// listed functions of one file is within policy.
#[derive(Debug, Clone)]
pub struct SeedHelper {
    /// Workspace-relative file.
    pub file: String,
    /// Function names blessed within that file.
    pub functions: Vec<String>,
    /// Line of the entry's `[[helper]]` header (0 when built in code).
    pub line: u32,
}

/// The versioned seed-policy manifest.
#[derive(Debug, Clone, Default)]
pub struct SeedManifest {
    helpers: Vec<SeedHelper>,
}

impl SeedManifest {
    /// Loads `analysis/seed_policy.toml` under `root`; a missing file means
    /// *no* site is blessed.
    pub fn load(root: &Path) -> Result<SeedManifest, String> {
        let path = root.join("analysis/seed_policy.toml");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(SeedManifest::default());
        };
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(SeedManifest {
            helpers: helpers_from(&doc)?,
        })
    }

    /// Builds a manifest from `(file, functions)` pairs (tests).
    pub fn from_entries(entries: Vec<(String, Vec<String>)>) -> SeedManifest {
        SeedManifest {
            helpers: entries
                .into_iter()
                .map(|(file, functions)| SeedHelper {
                    file,
                    functions,
                    line: 0,
                })
                .collect(),
        }
    }

    /// True when `function` in `file` is a blessed seed-policy helper.
    pub fn allows(&self, file: &str, function: &str) -> bool {
        self.helpers
            .iter()
            .any(|h| h.file == file && h.functions.iter().any(|f| f == function))
    }

    /// All blessed helpers.
    pub fn helpers(&self) -> &[SeedHelper] {
        &self.helpers
    }
}

/// One audited unsafe scope: a workspace-relative path prefix whose files
/// are allowed to contain `unsafe` code, with the justification on record.
#[derive(Debug, Clone)]
pub struct UnsafeScope {
    /// Human name of the scope (reporting only).
    pub name: String,
    /// Workspace-relative path prefix (`crates/nn/src/simd/`); a file is in
    /// scope when its rel-path starts with the prefix.
    pub prefix: String,
    /// Line of the entry's `[[scope]]` header (0 when built in code).
    pub line: u32,
}

/// The audited-unsafe manifest.
#[derive(Debug, Clone, Default)]
pub struct UnsafeManifest {
    scopes: Vec<UnsafeScope>,
}

impl UnsafeManifest {
    /// Loads `analysis/unsafe.toml` under `root`; a missing file means *no*
    /// library file may contain `unsafe`.
    pub fn load(root: &Path) -> Result<UnsafeManifest, String> {
        let path = root.join("analysis/unsafe.toml");
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Ok(UnsafeManifest::default());
        };
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut scopes = Vec::new();
        for (line, entry) in doc.arrays.get("scope").map(|v| v.as_slice()).unwrap_or(&[]) {
            scopes.push(UnsafeScope {
                name: entry
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or("unsafe scope missing `name`")?
                    .to_string(),
                prefix: entry
                    .get("prefix")
                    .and_then(|v| v.as_str())
                    .ok_or("unsafe scope missing `prefix`")?
                    .to_string(),
                line: *line,
            });
        }
        Ok(UnsafeManifest { scopes })
    }

    /// Builds a manifest from path prefixes (tests).
    pub fn from_prefixes(prefixes: Vec<String>) -> UnsafeManifest {
        UnsafeManifest {
            scopes: prefixes
                .into_iter()
                .map(|prefix| UnsafeScope {
                    name: prefix.clone(),
                    prefix,
                    line: 0,
                })
                .collect(),
        }
    }

    /// True when `file` lies inside an audited unsafe scope.
    pub fn allows(&self, file: &str) -> bool {
        self.scopes
            .iter()
            .any(|s| file.starts_with(s.prefix.as_str()))
    }

    /// All audited scopes.
    pub fn scopes(&self) -> &[UnsafeScope] {
        &self.scopes
    }
}

fn helpers_from(doc: &Doc) -> Result<Vec<SeedHelper>, String> {
    let mut helpers = Vec::new();
    for (line, entry) in doc
        .arrays
        .get("helper")
        .map(|v| v.as_slice())
        .unwrap_or(&[])
    {
        helpers.push(SeedHelper {
            file: entry
                .get("file")
                .and_then(|v| v.as_str())
                .ok_or("seed helper missing `file`")?
                .to_string(),
            functions: entry
                .get("functions")
                .and_then(|v| v.as_str_array())
                .ok_or("seed helper missing `functions` array")?
                .to_vec(),
            line: *line,
        });
    }
    Ok(helpers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_rank_prefix_matches_indexed_receivers() {
        let manifest = LockManifest::from_entries(vec![
            ("f.rs".into(), "self.shards".into(), 5),
            ("f.rs".into(), "self.wait".into(), 9),
        ]);
        let rank_of =
            |file: &str, receiver: &str| manifest.class_of(file, receiver).map(|c| c.rank);
        assert_eq!(rank_of("f.rs", "self.shards[_]"), Some(5));
        assert_eq!(rank_of("f.rs", "self.wait"), Some(9));
        assert_eq!(rank_of("other.rs", "self.wait"), None);
        assert_eq!(rank_of("f.rs", "self.other"), None);
    }

    #[test]
    fn unsafe_manifest_matches_by_path_prefix() {
        let manifest = UnsafeManifest::from_prefixes(vec!["crates/nn/src/simd/".into()]);
        assert!(manifest.allows("crates/nn/src/simd/avx2.rs"));
        assert!(manifest.allows("crates/nn/src/simd/mod.rs"));
        assert!(!manifest.allows("crates/nn/src/mlp.rs"));
        assert!(!manifest.allows("crates/core/src/server.rs"));
    }

    #[test]
    fn seed_manifest_blesses_listed_functions_only() {
        let manifest = SeedManifest::from_entries(vec![(
            "a.rs".into(),
            vec!["good".into(), "also_good".into()],
        )]);
        assert!(manifest.allows("a.rs", "good"));
        assert!(!manifest.allows("a.rs", "bad"));
        assert!(!manifest.allows("b.rs", "good"));
    }
}
