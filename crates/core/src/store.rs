//! Per-application Q-table store (§IV-B).
//!
//! "The training for every newly executing application is only performed
//! once and the Q-table results are stored on the memory so that later
//! when the application is executed again the agent is able to refer to
//! the Q-table." The store keeps tables keyed by application name, with
//! optional directory-backed persistence in the binary `NXQT` format of
//! [`qlearn::codec`].

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use qlearn::backend::{DenseStore, QStore};
use qlearn::codec::{decode_table, encode_table};
use qlearn::qtable::QTable;

/// In-memory, optionally disk-backed store of per-app Q-tables.
///
/// Generic over the table's [`QStore`] backend (default: dense). The
/// campaign runner instantiates it over [`qlearn::OverlayStore`] so a
/// device day's tables are copy-on-write views of the round's shared
/// global instead of full clones.
#[derive(Debug)]
pub struct QTableStore<S: QStore = DenseStore> {
    dir: Option<PathBuf>,
    // BTreeMap, not HashMap: `cached_apps` feeds campaign manifests, so
    // the key order must be app-name order, never hash order (ND03).
    cache: BTreeMap<String, QTable<S>>,
}

// Manual impl: deriving would demand `S: Default` for no reason.
impl<S: QStore> Default for QTableStore<S> {
    fn default() -> Self {
        QTableStore {
            dir: None,
            cache: BTreeMap::new(),
        }
    }
}

impl<S: QStore> QTableStore<S> {
    /// A purely in-memory store (tables vanish with the process).
    #[must_use]
    pub fn in_memory() -> Self {
        QTableStore::default()
    }

    /// A store persisting tables as `<dir>/<app>.qtable`, each an
    /// `NXQT` full-table encoding.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory.
    pub fn at_dir<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(QTableStore {
            dir: Some(dir.as_ref().to_path_buf()),
            cache: BTreeMap::new(),
        })
    }

    /// Whether a table for `app` exists (cache or disk).
    #[must_use]
    pub fn contains(&self, app: &str) -> bool {
        self.cache.contains_key(app)
            || self
                .dir
                .as_ref()
                .is_some_and(|d| d.join(Self::file_name(app)).exists())
    }

    /// Loads the table for `app` if present.
    ///
    /// Disk corruption is reported as `None` (the paper's agent would
    /// simply retrain).
    #[must_use]
    pub fn load(&mut self, app: &str) -> Option<QTable<S>> {
        if let Some(t) = self.cache.get(app) {
            return Some(t.clone());
        }
        let dir = self.dir.as_ref()?;
        let bytes = fs::read(dir.join(Self::file_name(app))).ok()?;
        let table = decode_table::<S>(&bytes).ok()?;
        self.cache.insert(app.to_owned(), table.clone());
        Some(table)
    }

    /// Removes and returns the cached table for `app` **without
    /// cloning** — the zero-copy exit for tables the caller owns from
    /// here on (a device day's overlays on their way to delta
    /// extraction). Purely a cache operation: any on-disk copy is left
    /// in place.
    #[must_use]
    pub fn take(&mut self, app: &str) -> Option<QTable<S>> {
        self.cache.remove(app)
    }

    /// Saves the table for `app` (cache + disk when configured).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the file.
    pub fn save(&mut self, app: &str, table: &QTable<S>) -> io::Result<()> {
        self.cache.insert(app.to_owned(), table.clone());
        if let Some(dir) = &self.dir {
            fs::write(dir.join(Self::file_name(app)), encode_table(table))?;
        }
        Ok(())
    }

    /// Removes the table for `app` from cache and disk.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from removing the file (missing files are
    /// not an error).
    pub fn remove(&mut self, app: &str) -> io::Result<()> {
        self.cache.remove(app);
        if let Some(dir) = &self.dir {
            match fs::remove_file(dir.join(Self::file_name(app))) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Names of the apps with cached tables, in app-name order (the
    /// cache is a `BTreeMap`, so no explicit sort is needed).
    #[must_use]
    pub fn cached_apps(&self) -> Vec<String> {
        self.cache.keys().cloned().collect()
    }

    /// Sanitised on-disk file name for an app.
    fn file_name(app: &str) -> String {
        let safe: String = app
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{safe}.qtable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlearn::DenseQTable;

    fn sample_table() -> DenseQTable {
        let mut t = DenseQTable::new(9);
        t.set(1, 2, 3.5);
        t.set(99, 0, -1.0);
        t
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("next-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_roundtrip() {
        let mut store = QTableStore::in_memory();
        assert!(!store.contains("facebook"));
        assert!(store.load("facebook").is_none());
        store.save("facebook", &sample_table()).unwrap();
        assert!(store.contains("facebook"));
        assert_eq!(store.load("facebook").unwrap(), sample_table());
        assert_eq!(store.cached_apps(), vec!["facebook".to_owned()]);
    }

    #[test]
    fn disk_roundtrip_survives_new_store() {
        let dir = temp_dir("disk");
        {
            let mut store = QTableStore::at_dir(&dir).unwrap();
            store.save("pubg", &sample_table()).unwrap();
        }
        // Fresh store, same directory — simulates a device reboot.
        let mut store2 = QTableStore::at_dir(&dir).unwrap();
        assert!(store2.contains("pubg"));
        assert_eq!(store2.load("pubg").unwrap(), sample_table());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_file_loads_as_none() {
        let dir = temp_dir("corrupt");
        let mut store: QTableStore = QTableStore::at_dir(&dir).unwrap();
        fs::write(dir.join("bad.qtable"), "this is not a table").unwrap();
        assert!(store.load("bad").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_deletes_everywhere() {
        let dir = temp_dir("remove");
        let mut store = QTableStore::at_dir(&dir).unwrap();
        store.save("spotify", &sample_table()).unwrap();
        store.remove("spotify").unwrap();
        assert!(!store.contains("spotify"));
        assert!(store.load("spotify").is_none());
        // Removing again is fine.
        store.remove("spotify").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_names_are_sanitised() {
        assert_eq!(
            QTableStore::<DenseStore>::file_name("web/browser v2!"),
            "web_browser_v2_.qtable"
        );
        assert_eq!(QTableStore::<DenseStore>::file_name("pubg"), "pubg.qtable");
    }

    #[test]
    fn take_moves_the_cached_table_out() {
        let mut store = QTableStore::in_memory();
        store.save("pubg", &sample_table()).unwrap();
        assert_eq!(store.take("pubg"), Some(sample_table()));
        assert!(!store.contains("pubg"), "taken tables leave the cache");
        assert!(store.take("pubg").is_none());
    }

    #[test]
    fn overlay_backed_store_roundtrips() {
        use qlearn::OverlayStore;
        use std::sync::Arc;
        let base = Arc::new(sample_table());
        let mut store: QTableStore<OverlayStore> = QTableStore::in_memory();
        let mut t = QTable::overlay(Arc::clone(&base));
        t.set(1, 2, -4.0);
        store.save("pubg", &t).unwrap();
        let back = store.take("pubg").expect("cached");
        assert_eq!(back.q(1, 2), -4.0);
        assert_eq!(back.q(99, 0), base.q(99, 0), "base reads through");
    }
}
