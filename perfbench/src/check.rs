//! Output checks. A check that fails marks its op as failed, which
//! counts toward `error_rate`.

use std::sync::Arc;

use uc_catalog::{Entity, UcError, UcResult};

pub type Checked = Result<(), String>;

/// A returned entity carries the requested leaf name.
pub fn named(ent: &Entity, leaf: &str) -> Checked {
    if ent.name == leaf {
        Ok(())
    } else {
        Err(format!("asked for {leaf}, got {}", ent.name))
    }
}

/// A scan read the seeded number of rows from the seeded number of files.
pub fn scan(
    table: &str,
    rows: usize,
    files: usize,
    want_rows: usize,
    want_files: usize,
) -> Checked {
    if (rows, files) == (want_rows, want_files) {
        Ok(())
    } else {
        Err(format!("{table}: scanned {rows} rows from {files} files, seeded {want_rows} rows in {want_files} files"))
    }
}

/// A listing holds exactly the expected child names (`want` sorted).
pub fn listing(children: &[Arc<Entity>], want: &[String]) -> Checked {
    let mut got: Vec<&str> = children.iter().map(|e| e.name.as_str()).collect();
    got.sort_unstable();
    if got.len() == want.len() && got.iter().zip(want).all(|(g, w)| *g == w.as_str()) {
        Ok(())
    } else {
        Err(format!(
            "listing returned {} children, expected {}",
            got.len(),
            want.len()
        ))
    }
}

/// A read after a drop reports NotFound.
pub fn not_found(r: &UcResult<Arc<Entity>>, name: &str) -> Checked {
    match r {
        Err(UcError::NotFound(_)) => Ok(()),
        Ok(_) => Err(format!("{name} still readable after drop")),
        Err(e) => Err(format!("{name}: expected NotFound after drop, got {e}")),
    }
}

/// Two nodes agree on a key: the same entity (id, name, lifecycle,
/// committed version, grants, storage path), or NotFound on both.
pub fn same_answer(
    cached: &UcResult<Arc<Entity>>,
    fresh: &UcResult<Arc<Entity>>,
    name: &str,
) -> Checked {
    match (cached, fresh) {
        (Ok(a), Ok(b)) => {
            let key = |e: &Entity| {
                (
                    e.id.clone(),
                    e.name.clone(),
                    e.is_active(),
                    e.commit_version(),
                    e.grants.clone(),
                    e.storage_path.clone(),
                )
            };
            if key(a) == key(b) {
                Ok(())
            } else {
                Err(format!("{name}: cached node and fresh node disagree"))
            }
        }
        (Err(UcError::NotFound(_)), Err(UcError::NotFound(_))) => Ok(()),
        (a, b) => Err(format!(
            "{name}: cached node {}, fresh node {}",
            a.as_ref()
                .map_or_else(|e| e.to_string(), |_| "found it".into()),
            b.as_ref()
                .map_or_else(|e| e.to_string(), |_| "found it".into()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_catalog::types::SecurableKind;
    use uc_catalog::Uid;

    fn table(name: &str) -> Arc<Entity> {
        let ms = Uid::from_string("ms".into());
        Arc::new(Entity::new(
            SecurableKind::Table,
            name,
            Some(ms.clone()),
            ms,
            "owner",
            0,
        ))
    }

    #[test]
    fn a_wrong_result_is_rejected() {
        assert!(named(&table("t1"), "t1").is_ok());
        assert!(named(&table("t10"), "t1").is_err());
        assert!(scan("t", 40, 2, 40, 2).is_ok());
        assert!(scan("t", 39, 2, 40, 2).is_err());
        assert!(scan("t", 40, 1, 40, 2).is_err());
    }

    #[test]
    fn listings_must_be_complete_and_exact() {
        let want = vec!["a".to_string(), "b".to_string()];
        assert!(listing(&[table("b"), table("a")], &want).is_ok());
        assert!(listing(&[table("a")], &want).is_err());
        assert!(listing(&[table("a"), table("c")], &want).is_err());
    }

    #[test]
    fn drops_must_hide_the_table() {
        assert!(not_found(&Err(UcError::NotFound("t".into())), "t").is_ok());
        assert!(not_found(&Ok(table("t")), "t").is_err());
        assert!(not_found(&Err(UcError::PermissionDenied("no".into())), "t").is_err());
    }

    #[test]
    fn nodes_must_agree() {
        let a = table("t");
        assert!(same_answer(&Ok(a.clone()), &Ok(a.clone()), "t").is_ok());
        assert!(
            same_answer(&Ok(a.clone()), &Ok(table("t")), "t").is_err(),
            "different ids"
        );
        let nf = || Err(UcError::NotFound("t".into()));
        assert!(same_answer(&nf(), &nf(), "t").is_ok());
        assert!(same_answer(&Ok(a), &nf(), "t").is_err());
    }
}
