//! Open sharing interfaces: a Delta-Sharing-style protocol and an Iceberg
//! REST-style facade over UniForm metadata.
//!
//! Shares are securables: a share collects tables (under aliases), and
//! granting SELECT on the share to a recipient principal exposes exactly
//! those tables. Queries against a shared table return the table's file
//! list plus a read-scoped temporary credential — recipients never see
//! the provider's cloud credentials and cannot reach outside the shared
//! table's path. The same snapshot can be served as Iceberg metadata
//! (UniForm), so Iceberg-only clients read Delta data with no copy.

use std::sync::Arc;

use serde::{Deserialize, Serialize};
use uc_cloudstore::{AccessLevel, Credential, StoragePath, TempCredential};
use uc_delta::log::StorageCommitCoordinator;
use uc_delta::uniform::{snapshot_to_iceberg, IcebergMetadata};
use uc_delta::Snapshot;

use crate::audit::AuditDecision;
use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::model::keys::{self, T_SHAREMEM};
use crate::service::{claim_name, Context, UnityCatalog};
use crate::types::{FullName, SecurableKind};

/// A table exposed through a share.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareMember {
    pub table_id: String,
    /// `schema.table` name the recipient sees.
    pub alias: String,
}

/// One shared data file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SharedFile {
    pub url: String,
    pub size_bytes: u64,
    pub num_records: u64,
}

/// Response to a shared-table query (Delta-Sharing-style).
#[derive(Debug, Clone)]
pub struct SharedTableResponse {
    pub format: String,
    pub schema: uc_delta::value::Schema,
    pub version: i64,
    pub files: Vec<SharedFile>,
    /// Read credential scoped to the shared table's path.
    pub credential: TempCredential,
}

impl UnityCatalog {
    /// Create a share (CREATE_SHARE on the metastore or admin).
    pub fn create_share(&self, ctx: &Context, ms: &Uid, name: &str) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_share", ctx, ms);
        crate::types::validate_object_name(name)?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let authz = Self::authz_of(&[self.get_metastore(ms)?]);
        if !(who.is_metastore_admin || authz.has_privilege(&who, Privilege::CreateShare)) {
            self.record_audit(&ctx.principal, "createShare", Some(ms), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied("CREATE_SHARE required".into()));
        }
        let now = self.now_ms();
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let ent = Entity::new(SecurableKind::Share, name, Some(ms.clone()), ms.clone(), &ctx.principal, now);
            let tk = claim_name(tx, &ent, name)?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createShare", Some(&created.id), AuditDecision::Allow, name);
        Ok(created)
    }

    /// Add a table to a share. The sharer needs admin authority on the
    /// share and read access to the table.
    pub fn add_table_to_share(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
        table: &FullName,
    ) -> UcResult<()> {
        let _api = self.api_enter_t("add_table_to_share", ctx, ms);
        let share = self.share_by_name(ms, share_name)?;
        let full = self.chain_from_entity(ms, share.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).has_admin_authority(&who) {
            self.record_audit(&ctx.principal, "addToShare", Some(&share.id), AuditDecision::Deny, share_name);
            return Err(UcError::PermissionDenied("admin authority on share required".into()));
        }
        let table_chain = self.lookup_chain(ms, table, "relation")?;
        let table_ent = table_chain[0].clone();
        let table_full = self.chain_from_entity(ms, table_ent.clone())?;
        if !Self::authz_of(&table_full).can_read_data(&who, Privilege::Select) {
            self.record_audit(&ctx.principal, "addToShare", Some(&table_ent.id), AuditDecision::Deny, table);
            return Err(UcError::PermissionDenied(format!(
                "sharer needs SELECT on {table}"
            )));
        }
        let alias = format!("{}.{}", table.schema().unwrap_or("default"), table_ent.name);
        let member = ShareMember { table_id: table_ent.id.to_string(), alias };
        let share_id = share.id.clone();
        let table_id = table_ent.id.clone();
        self.write_ms(ms, |tx, _ver, _fx| {
            tx.put(
                T_SHAREMEM,
                &keys::share_member_key(ms, &share_id, &table_id),
                bytes::Bytes::from(crate::jsonutil::to_vec(&member)),
            );
            Ok(())
        })?;
        self.record_audit(&ctx.principal, "addToShare", Some(&share.id), AuditDecision::Allow, table);
        Ok(())
    }

    fn share_by_name(&self, ms: &Uid, name: &str) -> UcResult<Arc<Entity>> {
        let chain = self
            .lookup_chain(ms, &FullName::of(&[name]), SecurableKind::Share.name_group())
            .map_err(|e| match e {
                UcError::NotFound(_) => UcError::NotFound(format!("share {name}")),
                e => e,
            })?;
        Ok(chain[0].clone())
    }

    /// Shares the caller can access (owner, admin, or SELECT grant).
    pub fn list_shares(&self, ctx: &Context, ms: &Uid) -> UcResult<Vec<Arc<Entity>>> {
        let _api = self.api_enter_t("list_shares", ctx, ms);
        let who = self.authz_context(ms, &ctx.principal)?;
        let prefix = keys::tree_group_prefix(&keys::tree_ms_prefix(ms), SecurableKind::Share.name_group());
        self.visible_children(ms, &who, &prefix)
    }

    /// Tables within a share (recipient must have SELECT on the share).
    pub fn list_share_tables(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
    ) -> UcResult<Vec<ShareMember>> {
        let _api = self.api_enter_t("list_share_tables", ctx, ms);
        let share = self.authorize_share_read(ctx, ms, share_name)?;
        let rt = self.db.begin_read();
        Ok(rt
            .scan_prefix(T_SHAREMEM, &keys::share_members_prefix(ms, &share.id))
            .into_iter()
            .filter_map(|(_, raw)| serde_json::from_slice(&raw).ok())
            .collect())
    }

    fn authorize_share_read(&self, ctx: &Context, ms: &Uid, share_name: &str) -> UcResult<Arc<Entity>> {
        let share = self.share_by_name(ms, share_name)?;
        let full = self.chain_from_entity(ms, share.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let authz = Self::authz_of(&full);
        if !(authz.has_privilege(&who, Privilege::Select) || authz.has_admin_authority(&who)) {
            self.record_audit(&ctx.principal, "queryShare", Some(&share.id), AuditDecision::Deny, share_name);
            return Err(UcError::PermissionDenied(format!(
                "SELECT on share {share_name} required"
            )));
        }
        Ok(share)
    }

    /// Query a shared table: snapshot + file list + scoped read token.
    /// Note: access is authorized against the *share*, not the underlying
    /// table — recipients need no grants on the table itself.
    pub fn query_share_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
        alias: &str,
    ) -> UcResult<SharedTableResponse> {
        let _api = self.api_enter_t("query_share_table", ctx, ms);
        let (table, snapshot) = self.shared_snapshot(ctx, ms, share_name, alias)?;
        let table_path = table
            .storage_path
            .as_ref()
            .and_then(|p| StoragePath::parse(p).ok())
            .ok_or_else(|| UcError::UnsupportedOperation("shared table has no storage".into()))?;
        let files = snapshot
            .files
            .values()
            .map(|f| SharedFile {
                url: table_path.child(&f.path).to_string(),
                size_bytes: f.size_bytes,
                num_records: f.num_records,
            })
            .collect();
        let credential = self.mint_for_entity(ms, &table, AccessLevel::Read)?;
        self.record_audit(&ctx.principal, "queryShareTable", Some(&table.id), AuditDecision::Allow, alias);
        Ok(SharedTableResponse {
            format: "delta".into(),
            schema: snapshot.metadata.schema.clone(),
            version: snapshot.version,
            files,
            credential,
        })
    }

    /// Serve a shared table as Iceberg metadata (UniForm): Iceberg-only
    /// clients read the same files through their own metadata model.
    pub fn query_share_table_as_iceberg(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
        alias: &str,
    ) -> UcResult<IcebergMetadata> {
        let _api = self.api_enter_t("query_share_table_as_iceberg", ctx, ms);
        let (table, snapshot) = self.shared_snapshot(ctx, ms, share_name, alias)?;
        let table_path = table
            .storage_path
            .as_ref()
            .and_then(|p| StoragePath::parse(p).ok())
            .ok_or_else(|| UcError::UnsupportedOperation("shared table has no storage".into()))?;
        Ok(snapshot_to_iceberg(&snapshot, &table_path, self.now_ms()))
    }

    fn shared_snapshot(
        &self,
        ctx: &Context,
        ms: &Uid,
        share_name: &str,
        alias: &str,
    ) -> UcResult<(Arc<Entity>, Snapshot)> {
        let share = self.authorize_share_read(ctx, ms, share_name)?;
        let rt = self.db.begin_read();
        let member = rt
            .scan_prefix(T_SHAREMEM, &keys::share_members_prefix(ms, &share.id))
            .into_iter()
            .filter_map(|(_, raw)| serde_json::from_slice::<ShareMember>(&raw).ok())
            .find(|m| m.alias == alias)
            .ok_or_else(|| UcError::NotFound(format!("{alias} in share {share_name}")))?;
        drop(rt);
        let table = self
            .entity_by_id(ms, &Uid::from(member.table_id.as_str()))?
            .ok_or_else(|| UcError::NotFound(format!("shared table {alias} was dropped")))?;
        let snapshot = self.table_snapshot_internal(ms, &table)?;
        Ok((table, snapshot))
    }

    /// Iceberg REST-style facade for *direct* (non-share) access: an
    /// Iceberg client with SELECT on a Delta table loads it as Iceberg
    /// metadata generated via UniForm — the same files, no copy. FGAC
    /// tables are gated to trusted engines exactly like raw-credential
    /// access.
    pub fn load_table_as_iceberg(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
    ) -> UcResult<IcebergMetadata> {
        let _api = self.api_enter_t("load_table_as_iceberg", ctx, ms);
        let chain = self.lookup_chain(ms, name, "relation")?;
        let table = chain[0].clone();
        let full = self.chain_from_entity(ms, table.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).can_read_data(&who, Privilege::Select) {
            self.record_audit(&ctx.principal, "loadTableAsIceberg", Some(&table.id), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied(format!("SELECT required on {name}")));
        }
        if table.has_fgac() && !ctx.is_trusted_engine() {
            return Err(UcError::PermissionDenied(
                "table has fine-grained policies; Iceberg pass-through requires a trusted engine".into(),
            ));
        }
        let snapshot = self.table_snapshot_internal(ms, &table)?;
        let path = StoragePath::parse(table.storage_path.as_ref().ok_or_else(|| {
            UcError::UnsupportedOperation(format!("{name} has no storage"))
        })?)
        .map_err(|e| UcError::Storage(e.to_string()))?;
        self.record_audit(&ctx.principal, "loadTableAsIceberg", Some(&table.id), AuditDecision::Allow, name);
        Ok(snapshot_to_iceberg(&snapshot, &path, self.now_ms()))
    }

    /// Build a table's current snapshot with catalog-internal access: the
    /// catalog reads the log with its own root credential (or its own
    /// commit store for catalog-owned tables). Used by sharing and the
    /// Iceberg facade.
    pub(crate) fn table_snapshot_internal(&self, ms: &Uid, table: &Entity) -> UcResult<Snapshot> {
        let path_str = table
            .storage_path
            .as_ref()
            .ok_or_else(|| UcError::UnsupportedOperation(format!("{} has no storage", table.name)))?;
        let path = StoragePath::parse(path_str).map_err(|e| UcError::Storage(e.to_string()))?;
        let root = self.root_for_bucket(ms, path.bucket())?;
        let cred = Credential::Root(root);
        if table.commit_version() >= 0 {
            // Catalog-owned: replay commits from the catalog's store.
            let latest = table.commit_version();
            let mut log = Vec::with_capacity((latest + 1) as usize);
            for v in 0..=latest {
                let payload = self
                    .commit_read_internal(ms, &table.id, v)
                    .ok_or_else(|| UcError::Database(format!("missing commit {v} for {}", table.name)))?;
                let actions = uc_delta::actions::decode_commit(&payload)?;
                log.push((v, actions));
            }
            Ok(Snapshot::replay(&log)?)
        } else {
            let coordinator = StorageCommitCoordinator::new(self.store.clone(), &path);
            let log = uc_delta::log::read_log(&coordinator, &cred)?;
            if log.is_empty() {
                return Err(UcError::NotFound(format!("{} has no table data", table.name)));
            }
            Ok(Snapshot::replay(&log)?)
        }
    }
}
