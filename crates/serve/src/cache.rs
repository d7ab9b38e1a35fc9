//! Content-addressed result cache: one file per grid cell, keyed by
//! `fdip_harness::remote::cell_key` (FNV-1a over config hash, workload
//! hash, seed, and instruction budget).
//!
//! An entry is four lines of compact JSON: a header naming the cell key
//! and an FNV-1a digest of the served bytes, the cell's metadata, then
//! `stats` and `dists` exactly as the grid response carries them. A read
//! hands back those two lines verbatim, so serving a cached cell needs
//! no JSON parse. Entries are written atomically (`<key>.json.tmp` +
//! rename), so a killed daemon never leaves a torn entry behind, and
//! every read checks the header against the requested key and the
//! digest against the bytes: a mismatch, a truncated file, or a file in
//! any other layout is a miss, never served. The layout is specified in
//! `docs/SERVE.md` §"Cache entries".

use std::io;
use std::ops::Range;
use std::path::PathBuf;

use fdip_harness::remote::fnv1a64;
use fdip_telemetry::Json;

/// An on-disk cell cache rooted at `<state_dir>/cache/`.
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
}

/// A verified cache entry: the file's text and where its served
/// `stats` and `dists` lines sit in it.
#[derive(Debug)]
pub struct Entry {
    text: String,
    stats: Range<usize>,
    dists: Range<usize>,
}

impl Entry {
    /// The cell's `SimStats::to_json()`, compactly serialized.
    pub fn stats(&self) -> &str {
        &self.text[self.stats.clone()]
    }

    /// The cell's `SimDists::to_json()`, compactly serialized.
    pub fn dists(&self) -> &str {
        &self.text[self.dists.clone()]
    }
}

/// The header line: the cell key and the digest of the served lines.
fn header(key: &str, digest: u64) -> String {
    Json::obj()
        .with("cell", key)
        .with("digest", format!("{digest:016x}"))
        .to_string()
}

/// Splits `text` into its four lines and checks the header against
/// `key` and the digest of the last two; `None` for anything else.
fn verify(key: &str, text: String) -> Option<Entry> {
    let (head, rest) = text.split_once('\n')?;
    let (meta, served) = rest.split_once('\n')?;
    if head != header(key, fnv1a64(served.as_bytes())) {
        return None;
    }
    let (stats, dists) = served.strip_suffix('\n')?.split_once('\n')?;
    if dists.contains('\n') {
        return None;
    }
    let start = head.len() + 1 + meta.len() + 1;
    let stats = start..start + stats.len();
    let dists = stats.end + 1..stats.end + 1 + dists.len();
    Some(Entry { text, stats, dists })
}

impl Cache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created.
    pub fn open(dir: PathBuf) -> io::Result<Cache> {
        std::fs::create_dir_all(&dir)?;
        Ok(Cache { dir })
    }

    /// Reads and verifies the entry for `key`. A missing or unreadable
    /// file, a header naming another key, a digest that does not match
    /// the served bytes, or a file in any other layout is a miss.
    pub fn get(&self, key: &str) -> Option<Entry> {
        let text = std::fs::read_to_string(self.dir.join(format!("{key}.json"))).ok()?;
        verify(key, text)
    }

    /// Writes the entry for `key` atomically: its metadata object plus
    /// the `stats` and `dists` documents the grid response will carry.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the entry cannot be written or renamed
    /// into place.
    pub fn put(&self, key: &str, meta: &Json, stats: &Json, dists: &Json) -> io::Result<()> {
        let served = format!("{}\n{}\n", stats.to_string(), dists.to_string());
        let text = format!(
            "{}\n{}\n{served}",
            header(key, fnv1a64(served.as_bytes())),
            meta.to_string()
        );
        let tmp = self.dir.join(format!("{key}.json.tmp"));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, self.dir.join(format!("{key}.json")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fdip-cache-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn stats() -> Json {
        Json::obj().with("counters", Json::obj().with("cycles", 1667u64))
    }

    fn dists() -> Json {
        Json::obj().with("sampled_ipc", Json::obj().with("mean", 1.25))
    }

    fn put(cache: &Cache, key: &str) {
        let meta = Json::obj().with("cell", key).with("workload", "server_a");
        cache.put(key, &meta, &stats(), &dists()).unwrap();
    }

    #[test]
    fn put_get_round_trips_and_survives_reopen() {
        let dir = temp_dir("roundtrip");
        let cache = Cache::open(dir.clone()).unwrap();
        put(&cache, "abc");
        let entry = cache.get("abc").expect("hit");
        assert_eq!(entry.stats(), stats().to_string());
        assert_eq!(entry.dists(), dists().to_string());
        assert!(cache.get("missing").is_none());
        // A fresh Cache over the same directory sees the entry.
        let reopened = Cache::open(dir.clone()).unwrap();
        assert_eq!(reopened.get("abc").expect("hit").stats(), entry.stats());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_or_foreign_entries_read_as_misses() {
        let dir = temp_dir("damaged");
        let cache = Cache::open(dir.clone()).unwrap();
        put(&cache, "good");
        let path = dir.join("good.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let edited = text.replace("1667", "1668");
        assert_ne!(edited, text);
        let old_layout = Json::obj()
            .with("cell", "good")
            .with("stats", stats())
            .with("dists", dists())
            .to_string_pretty();
        for (what, damaged) in [
            ("not json", "{not json".to_string()),
            ("a served value edited", edited),
            ("truncated", text[..text.len() - 5].to_string()),
            ("trailing line", format!("{text}{{}}\n")),
            ("the single-document layout", old_layout),
        ] {
            std::fs::write(&path, damaged).unwrap();
            assert!(cache.get("good").is_none(), "{what} was served");
        }
        // A valid entry under another cell's name is a miss too.
        put(&cache, "other");
        std::fs::copy(dir.join("other.json"), &path).unwrap();
        assert!(
            cache.get("good").is_none(),
            "another cell's entry was served"
        );
        assert!(cache.get("other").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}
