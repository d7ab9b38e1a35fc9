//! Doc-contract helpers shared by the `tests/*_doc.rs` files: read a doc
//! under `docs/`, require every key a JSON document emits to appear as
//! `` `key` `` in the docs that specify it, and read the backticked names
//! in a markdown table's first column.

#![allow(dead_code, reason = "each test file uses a different subset")]

use std::collections::BTreeSet;

use fdip_telemetry::Json;

/// The text of `docs/<name>`.
pub fn doc(name: &str) -> String {
    let path = format!("{}/docs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every object key in `v`, except below a key listed in `skip`.
fn collect_keys(v: &Json, skip: &[&str], keys: &mut BTreeSet<String>) {
    match v {
        Json::Obj(fields) => {
            for (k, child) in fields {
                keys.insert(k.clone());
                if !skip.contains(&k.as_str()) {
                    collect_keys(child, skip, keys);
                }
            }
        }
        Json::Arr(items) => {
            for item in items {
                collect_keys(item, skip, keys);
            }
        }
        _ => {}
    }
}

/// Asserts that every key `emitted` carries (not descending below a key
/// in `skip`) appears as `` `key` `` in one of `docs`, and returns how
/// many distinct keys that was.
pub fn assert_documented(emitted: &Json, docs: &[&str], skip: &[&str], context: &str) -> usize {
    let texts: Vec<String> = docs.iter().map(|name| doc(name)).collect();
    let mut keys = BTreeSet::new();
    collect_keys(emitted, skip, &mut keys);
    let undocumented: Vec<&String> = keys
        .iter()
        .filter(|k| !texts.iter().any(|t| t.contains(&format!("`{k}`"))))
        .collect();
    assert!(
        undocumented.is_empty(),
        "{context}: keys emitted but not documented in {docs:?}: {undocumented:?} \
         — document them (and bump schema_version on renames)"
    );
    keys.len()
}

/// The rows of the markdown tables in `text` whose first cell holds
/// backticked names: those names, and the row's later cells, trimmed.
pub fn table_rows(text: &str) -> Vec<(Vec<String>, Vec<&str>)> {
    text.lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix('|')?.split('|').map(str::trim);
            let names: Vec<String> = cells
                .next()?
                .split('`')
                .skip(1)
                .step_by(2)
                .map(str::to_string)
                .collect();
            (!names.is_empty()).then(|| (names, cells.collect()))
        })
        .collect()
}
