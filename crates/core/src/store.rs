//! Per-application Q-table store (§IV-B).
//!
//! "The training for every newly executing application is only performed
//! once and the Q-table results are stored on the memory so that later
//! when the application is executed again the agent is able to refer to
//! the Q-table." The store is that memory: a map of tables keyed by
//! application name. It touches no file, so [`QTableStore::save`]
//! cannot fail; table files are the CLI's, written and read through
//! the binary `NXQT` codec of [`qlearn::codec`].

use std::collections::BTreeMap;
use std::convert::Infallible;

use qlearn::backend::{DenseStore, QStore};
use qlearn::qtable::QTable;

/// In-memory store of per-app Q-tables.
///
/// Generic over the table's [`QStore`] backend (default: dense). The
/// campaign runner instantiates it over [`qlearn::OverlayStore`] so a
/// device day's tables are copy-on-write views of the round's shared
/// global instead of full clones.
#[derive(Debug)]
pub struct QTableStore<S: QStore = DenseStore> {
    // BTreeMap, not HashMap: the artifact-byte crates keep no
    // hash-ordered maps (ND03).
    tables: BTreeMap<String, QTable<S>>,
}

impl<S: QStore> QTableStore<S> {
    /// An empty store (tables vanish with the process).
    #[must_use]
    pub fn in_memory() -> Self {
        QTableStore {
            tables: BTreeMap::new(),
        }
    }

    /// A copy of the table for `app`, if one is stored.
    #[must_use]
    pub fn load(&self, app: &str) -> Option<QTable<S>> {
        self.tables.get(app).cloned()
    }

    /// Removes and returns the table for `app` **without cloning** —
    /// the zero-copy exit for tables the caller owns from here on (a
    /// device day's overlays on their way to delta extraction).
    #[must_use]
    pub fn take(&mut self, app: &str) -> Option<QTable<S>> {
        self.tables.remove(app)
    }

    /// Stores a copy of `table` for `app`, replacing any previous one.
    ///
    /// # Errors
    ///
    /// None: the error type is [`Infallible`], so callers match the
    /// result with `let Ok(()) = store.save(..);`.
    pub fn save(&mut self, app: &str, table: &QTable<S>) -> Result<(), Infallible> {
        self.tables.insert(app.to_owned(), table.clone());
        Ok(())
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

    #[test]
    fn in_memory_roundtrip() {
        let mut store = QTableStore::in_memory();
        assert!(store.load("facebook").is_none());
        let Ok(()) = store.save("facebook", &sample_table());
        assert_eq!(store.load("facebook"), Some(sample_table()));
        assert_eq!(store.load("facebook"), Some(sample_table()), "load copies");
    }

    #[test]
    fn take_moves_the_cached_table_out() {
        let mut store = QTableStore::in_memory();
        let Ok(()) = store.save("pubg", &sample_table());
        assert_eq!(store.take("pubg"), Some(sample_table()));
        assert!(store.load("pubg").is_none(), "taken tables leave the store");
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
        let Ok(()) = store.save("pubg", &t);
        let back = store.take("pubg").expect("stored");
        assert_eq!(back.q(1, 2), -4.0);
        assert_eq!(back.q(99, 0), base.q(99, 0), "base reads through");
    }
}
