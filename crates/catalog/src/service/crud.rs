//! CRUD APIs for all securable kinds — the uniform core the asset-type
//! manifests plug into (§4.2).

use std::sync::Arc;

use uc_cloudstore::{RootCredential, StoragePath};
use uc_delta::value::Schema;
use uc_txdb::WriteTxn;

use crate::audit::AuditDecision;
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::{props, Entity};
use crate::model::keys::{self, T_COMMIT, T_ENTITY, T_TREE};
use crate::model::manifest::manifest;
use crate::model::paths;
use crate::service::{claim_name, Context, UnityCatalog, WriteEffects};
use crate::types::{
    validate_object_name, FullName, LifecycleState, SecurableKind, TableFormat, TableType,
};

/// Everything needed to create a table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: FullName,
    pub columns: Schema,
    pub format: TableFormat,
    pub table_type: TableType,
    /// Required for external tables; forbidden for managed ones.
    pub storage_path: Option<String>,
    /// Connector type for foreign tables.
    pub foreign_type: Option<String>,
}

impl TableSpec {
    pub fn managed(name: &str, columns: Schema) -> UcResult<Self> {
        Ok(TableSpec {
            name: FullName::parse(name)?,
            columns,
            format: TableFormat::Delta,
            table_type: TableType::Managed,
            storage_path: None,
            foreign_type: None,
        })
    }

    pub fn external(name: &str, columns: Schema, path: &str, format: TableFormat) -> UcResult<Self> {
        Ok(TableSpec {
            name: FullName::parse(name)?,
            columns,
            format,
            table_type: TableType::External,
            storage_path: Some(path.to_string()),
            foreign_type: None,
        })
    }
}

/// One schema's worth of a bulk namespace import: the schema name and its
/// table names, all created under one catalog by
/// [`UnityCatalog::bulk_create_tables`].
#[derive(Debug, Clone)]
pub struct BulkSchemaSpec {
    pub name: String,
    pub tables: Vec<String>,
}

/// Rewrite an entity by id inside a write transaction, recording its
/// `Update` effect.
pub(crate) fn rewrite_entity(
    tx: &mut WriteTxn,
    fx: &mut WriteEffects,
    ms: &Uid,
    id: &Uid,
    now: u64,
    f: impl Fn(&mut Entity) -> UcResult<()>,
) -> UcResult<Arc<Entity>> {
    let raw = tx
        .get(T_ENTITY, &keys::ent_key(ms, id))
        .ok_or_else(|| UcError::NotFound(id.to_string()))?;
    let mut ent = Entity::decode(&raw)?;
    // A soft-deleted row must never be updated: its name may have been
    // re-assigned to a successor entity, and re-upserting would resurrect
    // the deleted tree row (a caller can reach this via a stale cached
    // name mapping; the serializable write is where staleness gets
    // caught).
    if !ent.is_active() {
        return Err(UcError::NotFound(id.to_string()));
    }
    f(&mut ent)?;
    ent.updated_at_ms = now;
    (manifest(ent.kind).validate)(&ent)?;
    fx.upsert(tx, ent, ChangeOp::Update)
}

impl UnityCatalog {
    // ------------------------------------------------------------------
    // Metastore lifecycle
    // ------------------------------------------------------------------

    /// Create a metastore. Account-level: the creator becomes owner and
    /// first admin.
    pub fn create_metastore(&self, principal: &str, name: &str, region: &str) -> UcResult<Uid> {
        let _api = self.api_enter_p("create_metastore", principal, None);
        validate_object_name(name)?;
        let now = self.now_ms();
        let mut ent = Entity::new(SecurableKind::Metastore, name, None, Uid::from(""), principal, now);
        ent.properties.insert(props::REGION.to_string(), region.to_string());
        ent.set_metastore_admins(&[principal.to_string()]);
        let ms = ent.id.clone();
        // Register the human-readable label alias before the first write:
        // any telemetry emitted for this metastore from here on renders
        // the name, never the random uid.
        self.set_tenant_alias(&ms, name);
        self.write_ms(&ms, |tx, _ver, fx| {
            fx.upsert(tx, ent.clone(), ChangeOp::Create)?;
            Ok(())
        })?;
        self.record_audit(principal, "createMetastore", Some(&ms), AuditDecision::Allow, name);
        Ok(ms)
    }

    /// Fetch the metastore entity.
    pub fn get_metastore(&self, ms: &Uid) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_p("get_metastore", super::NO_TENANT, Some(ms));
        self.entity_by_id(ms, ms)?
            .ok_or_else(|| UcError::NotFound(format!("metastore {ms}")))
    }

    /// Set the managed-storage root for a metastore (admin only).
    pub fn set_metastore_root(&self, ctx: &Context, ms: &Uid, root_path: &str) -> UcResult<()> {
        let _api = self.api_enter_t("set_metastore_root", ctx, ms);
        StoragePath::parse(root_path).map_err(|e| UcError::InvalidArgument(e.to_string()))?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !who.is_metastore_admin {
            self.record_audit(&ctx.principal, "setMetastoreRoot", Some(ms), AuditDecision::Deny, root_path);
            return Err(UcError::PermissionDenied("metastore admin required".into()));
        }
        self.update_entity_by_id(ms, ms, |e| {
            e.properties.insert("root_location".to_string(), root_path.to_string());
            Ok(())
        })?;
        self.record_audit(&ctx.principal, "setMetastoreRoot", Some(ms), AuditDecision::Allow, root_path);
        Ok(())
    }

    /// Add a metastore admin (admin only).
    pub fn add_metastore_admin(&self, ctx: &Context, ms: &Uid, principal: &str) -> UcResult<()> {
        let _api = self.api_enter_t("add_metastore_admin", ctx, ms);
        let who = self.authz_context(ms, &ctx.principal)?;
        if !who.is_metastore_admin {
            self.record_audit(&ctx.principal, "addMetastoreAdmin", Some(ms), AuditDecision::Deny, principal);
            return Err(UcError::PermissionDenied("metastore admin required".into()));
        }
        self.update_entity_by_id(ms, ms, |e| {
            let mut admins = e.metastore_admins();
            if !admins.iter().any(|a| a == principal) {
                admins.push(principal.to_string());
            }
            e.set_metastore_admins(&admins);
            Ok(())
        })?;
        self.record_audit(&ctx.principal, "addMetastoreAdmin", Some(ms), AuditDecision::Allow, principal);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Storage configuration assets
    // ------------------------------------------------------------------

    /// Register a storage credential: the catalog becomes the holder of
    /// the bucket's root credential (clients never see it).
    pub fn create_storage_credential(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        root: &RootCredential,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_storage_credential", ctx, ms);
        validate_object_name(name)?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let ms_chain = vec![self.get_metastore(ms)?];
        let authz = Self::authz_of(&ms_chain);
        let allowed = who.is_metastore_admin
            || authz.has_privilege(&who, crate::authz::Privilege::CreateExternalLocation);
        if !allowed {
            self.record_audit(&ctx.principal, "createStorageCredential", Some(ms), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied(
                "CREATE_EXTERNAL_LOCATION on metastore required".into(),
            ));
        }
        let now = self.now_ms();
        let bucket = root.bucket.clone();
        let secret = root.secret;
        let created = self.write_ms(&ms.clone(), |tx, _ver, fx| {
            let mut ent = Entity::new(
                SecurableKind::StorageCredential,
                name,
                Some(ms.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, name)?;
            ent.properties.insert(props::BUCKET.to_string(), bucket.clone());
            ent.properties.insert(props::ROOT_SECRET.to_string(), secret.to_string());
            (manifest(ent.kind).validate)(&ent)?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.roots.write().insert(root.bucket.clone(), root.clone());
        self.record_audit(&ctx.principal, "createStorageCredential", Some(&created.id), AuditDecision::Allow, name);
        Ok(created)
    }

    /// Create an external location covering a path, backed by a storage
    /// credential. External locations may not overlap one another.
    pub fn create_external_location(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        path: &str,
        credential_name: &str,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_external_location", ctx, ms);
        validate_object_name(name)?;
        let parsed = StoragePath::parse(path).map_err(|e| UcError::InvalidArgument(e.to_string()))?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let ms_chain = vec![self.get_metastore(ms)?];
        let authz = Self::authz_of(&ms_chain);
        if !(who.is_metastore_admin
            || authz.has_privilege(&who, crate::authz::Privilege::CreateExternalLocation))
        {
            self.record_audit(&ctx.principal, "createExternalLocation", Some(ms), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied(
                "CREATE_EXTERNAL_LOCATION on metastore required".into(),
            ));
        }
        // The credential must exist and cover the bucket.
        let cred = self
            .lookup_chain(ms, &FullName::of(&[credential_name]), SecurableKind::StorageCredential.name_group())
            .map_err(|e| match e {
                UcError::NotFound(_) => UcError::NotFound(format!("storage credential {credential_name}")),
                e => e,
            })?[0]
            .clone();
        if cred.properties.get(props::BUCKET).map(|b| b.as_str()) != Some(parsed.bucket()) {
            return Err(UcError::InvalidArgument(format!(
                "credential {credential_name} does not cover bucket {}",
                parsed.bucket()
            )));
        }
        let now = self.now_ms();
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let mut ent = Entity::new(
                SecurableKind::ExternalLocation,
                name,
                Some(ms.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, name)?;
            // Overlap check against existing external locations (small set;
            // the scan is in the transaction's validated read set).
            for (_, raw) in tx.scan_prefix(T_TREE, &Self::ext_location_prefix(ms)) {
                let other = Entity::decode(&raw)?;
                if let Some(op) = other.storage_path.as_ref().and_then(|p| StoragePath::parse(p).ok()) {
                    if op.overlaps(&parsed) {
                        return Err(UcError::PathConflict {
                            requested: parsed.to_string(),
                            existing: op.to_string(),
                        });
                    }
                }
            }
            ent.storage_path = Some(parsed.to_string());
            ent.properties.insert("credential".to_string(), credential_name.to_string());
            (manifest(ent.kind).validate)(&ent)?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createExternalLocation", Some(&created.id), AuditDecision::Allow, path);
        Ok(created)
    }

    // ------------------------------------------------------------------
    // Containers
    // ------------------------------------------------------------------

    /// Create a catalog in the metastore.
    pub fn create_catalog(&self, ctx: &Context, ms: &Uid, name: &str) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_catalog", ctx, ms);
        validate_object_name(name)?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let ms_chain = vec![self.get_metastore(ms)?];
        let authz = Self::authz_of(&ms_chain);
        if !(who.is_metastore_admin || authz.has_privilege(&who, crate::authz::Privilege::CreateCatalog)) {
            self.record_audit(&ctx.principal, "createCatalog", Some(ms), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied("CREATE_CATALOG on metastore required".into()));
        }
        let now = self.now_ms();
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let ent = Entity::new(SecurableKind::Catalog, name, None, ms.clone(), &ctx.principal, now);
            let tk = claim_name(tx, &ent, name)?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createCatalog", Some(&created.id), AuditDecision::Allow, name);
        Ok(created)
    }

    /// Create a schema inside a catalog.
    pub fn create_schema(&self, ctx: &Context, ms: &Uid, catalog: &str, name: &str) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_schema", ctx, ms);
        validate_object_name(name)?;
        let chain = self.lookup_chain(ms, &FullName::of(&[catalog]), "catalog")?;
        let full = self.chain_from_entity(ms, chain[0].clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let authz = Self::authz_of(&full);
        if !(authz.has_admin_authority(&who)
            || authz.has_privilege(&who, crate::authz::Privilege::CreateSchema))
        {
            self.record_audit(&ctx.principal, "createSchema", Some(&chain[0].id), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied("CREATE_SCHEMA on catalog required".into()));
        }
        let parent = chain[0].id.clone();
        let now = self.now_ms();
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let ent = Entity::new(SecurableKind::Schema, name, Some(parent.clone()), ms.clone(), &ctx.principal, now);
            let tk = claim_name(tx, &ent, format_args!("{catalog}.{name}"))?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createSchema", Some(&created.id), AuditDecision::Allow, name);
        Ok(created)
    }

    // ------------------------------------------------------------------
    // Leaf assets
    // ------------------------------------------------------------------

    /// Shared pre-flight for creating a leaf asset under a schema:
    /// The leaf segment of a three-part name, as an owned string.
    fn leaf_of(name: &FullName) -> UcResult<String> {
        name.asset()
            .map(|s| s.to_string())
            .ok_or_else(|| UcError::InvalidArgument(format!("expected catalog.schema.name, got {name}")))
    }

    /// resolves the parent chain and checks the create privilege.
    fn authorize_create_in_schema(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        kind: SecurableKind,
    ) -> UcResult<Vec<Arc<Entity>>> {
        if name.len() != 3 {
            return Err(UcError::InvalidArgument(format!(
                "expected catalog.schema.name, got {name}"
            )));
        }
        let Some(schema_name) = name.schema() else {
            return Err(UcError::InvalidArgument(format!("expected catalog.schema.name, got {name}")));
        };
        let chain = self.lookup_chain(ms, &FullName::of(&[name.catalog(), schema_name]), "schema")?;
        let full = self.chain_from_entity(ms, chain[0].clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let authz = Self::authz_of(&full);
        let Some(needed) = manifest(kind).create_privilege else {
            return Err(UcError::UnsupportedOperation(format!("{kind} cannot be created in a schema")));
        };
        if !(authz.has_admin_authority(&who) || authz.has_privilege(&who, needed)) {
            // Audit with the kind-specific action so the trail matches the
            // op that was denied, not a catch-all verb.
            let action = match kind {
                SecurableKind::Table => "createTable",
                SecurableKind::View => "createView",
                SecurableKind::Volume => "createVolume",
                SecurableKind::Function => "createFunction",
                _ => "createRegisteredModel",
            };
            self.record_audit(&ctx.principal, action, Some(&chain[0].id), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied(format!(
                "{needed} on schema required to create {kind}"
            )));
        }
        Ok(full)
    }

    /// Allocate a managed storage path under the metastore root.
    fn managed_path(&self, ms: &Uid, kind: SecurableKind, id: &Uid) -> UcResult<StoragePath> {
        let ms_ent = self.get_metastore(ms)?;
        let root = ms_ent
            .properties
            .get("root_location")
            .ok_or_else(|| UcError::InvalidArgument(
                "metastore has no root location configured for managed storage".into(),
            ))?;
        let root = StoragePath::parse(root).map_err(|e| UcError::Storage(e.to_string()))?;
        let subdir = match kind {
            SecurableKind::Table => "tables",
            SecurableKind::Volume => "volumes",
            SecurableKind::RegisteredModel => "models",
            _ => "assets",
        };
        Ok(root.child(subdir).child(id.as_str()))
    }

    /// For external assets: find the external location covering `path` and
    /// require a creation-enabling privilege on it.
    fn authorize_external_path(
        &self,
        ctx: &Context,
        ms: &Uid,
        path: &StoragePath,
    ) -> UcResult<()> {
        let who = self.authz_context(ms, &ctx.principal)?;
        if who.is_metastore_admin {
            return Ok(());
        }
        let rt = self.db.begin_read();
        for (_, raw) in rt.scan_prefix(T_TREE, &Self::ext_location_prefix(ms)) {
            let loc = Arc::new(Entity::decode(&raw)?);
            let Some(loc_path) = loc.storage_path.as_ref().and_then(|p| StoragePath::parse(p).ok())
            else {
                continue;
            };
            if loc_path.is_prefix_of(path) {
                let chain = self.chain_from_entity(ms, loc.clone())?;
                let authz = Self::authz_of(&chain);
                if authz.has_admin_authority(&who)
                    || authz.has_privilege(&who, crate::authz::Privilege::CreateTable)
                    || authz.has_privilege(&who, crate::authz::Privilege::WriteVolume)
                {
                    return Ok(());
                }
                self.record_audit(&ctx.principal, "useExternalPath", Some(&loc.id), AuditDecision::Deny, path);
                return Err(UcError::PermissionDenied(format!(
                    "no create privilege on external location {}",
                    loc.name
                )));
            }
        }
        self.record_audit(&ctx.principal, "useExternalPath", None, AuditDecision::Deny, path);
        Err(UcError::PermissionDenied(format!(
            "no external location covers {path}"
        )))
    }

    /// Tree-key prefix of every external location in a metastore.
    fn ext_location_prefix(ms: &Uid) -> String {
        keys::tree_group_prefix(&keys::tree_ms_prefix(ms), SecurableKind::ExternalLocation.name_group())
    }

    /// Create a table (managed or external or foreign).
    pub fn create_table(&self, ctx: &Context, ms: &Uid, spec: TableSpec) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_table", ctx, ms);
        let full = self.authorize_create_in_schema(ctx, ms, &spec.name, SecurableKind::Table)?;
        let schema_ent = full[0].clone();
        match spec.table_type {
            TableType::Managed if spec.storage_path.is_some() => {
                return Err(UcError::InvalidArgument(
                    "managed tables may not specify a storage path".into(),
                ))
            }
            TableType::External | TableType::Foreign if spec.storage_path.is_none()
                && spec.table_type == TableType::External => {
                    return Err(UcError::InvalidArgument(
                        "external tables require a storage path".into(),
                    ));
                }
            _ => {}
        }
        if let Some(p) = &spec.storage_path {
            let parsed = StoragePath::parse(p).map_err(|e| UcError::InvalidArgument(e.to_string()))?;
            if spec.table_type == TableType::External {
                self.authorize_external_path(ctx, ms, &parsed)?;
            }
        }
        let now = self.now_ms();
        let leaf = Self::leaf_of(&spec.name)?;
        let created = self.write_ms(ms, |tx, _ver, fx| {
            // Re-validate the parent inside the transaction: the chain was
            // resolved from the cache, and the schema may have been dropped
            // concurrently. Without this read (which also lands in the
            // transaction's validated read set) the create would succeed
            // and orphan the table under a soft-deleted schema — the
            // history checker caught exactly this interleaving.
            let live_parent = tx
                .get(T_ENTITY, &keys::ent_key(ms, &schema_ent.id))
                .map(|raw| Entity::decode(&raw))
                .transpose()?
                .is_some_and(|e| e.is_active());
            if !live_parent {
                return Err(UcError::NotFound(spec.name.to_string()));
            }
            let mut ent = Entity::new(
                SecurableKind::Table,
                &leaf,
                Some(schema_ent.id.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, &spec.name)?;
            ent.set_table_schema(&spec.columns);
            ent.properties.insert(props::TABLE_TYPE.to_string(), spec.table_type.as_str().to_string());
            ent.properties.insert(props::FORMAT.to_string(), spec.format.as_str().to_string());
            if let Some(ft) = &spec.foreign_type {
                ent.properties.insert(props::FOREIGN_TYPE.to_string(), ft.clone());
            }
            let path = match (spec.table_type, &spec.storage_path) {
                (TableType::Managed, _) => Some(self.managed_path(ms, SecurableKind::Table, &ent.id)?),
                (_, Some(p)) => Some(StoragePath::parse(p).map_err(|e| UcError::InvalidArgument(e.to_string()))?),
                _ => None,
            };
            if let Some(path) = &path {
                paths::register_path(tx, ms, path, &ent.id)?;
                ent.storage_path = Some(path.to_string());
            }
            (manifest(ent.kind).validate)(&ent)?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createTable", Some(&created.id), AuditDecision::Allow, spec.name);
        Ok(created)
    }

    /// Bulk-import a namespace under a catalog: every schema in `specs`
    /// plus its tables, written through the normal write protocol in
    /// chunked transactions of about `chunk` assets each — the
    /// Record-Layer-style bulk load that makes 10⁵–10⁷-asset populations
    /// practical to build. Each chunk is one serializable commit with
    /// full write-through (entity rows, tree index, cache, events);
    /// per-row cost is amortized by resolving each schema container once
    /// per chunk (one existence read plus one children scan for
    /// duplicate detection) instead of per table. Tables are created as
    /// managed Delta relations without storage allocation — bulk import
    /// loads metadata, not data. Existing schemas are reused and
    /// existing table names are skipped, so a resumed import converges.
    /// Metastore-admin only. Returns the number of entities created.
    pub fn bulk_create_tables(
        &self,
        ctx: &Context,
        ms: &Uid,
        catalog: &str,
        specs: &[BulkSchemaSpec],
        columns: &Schema,
        chunk: usize,
    ) -> UcResult<usize> {
        let _api = self.api_enter_t("bulk_create_tables", ctx, ms);
        let who = self.authz_context(ms, &ctx.principal)?;
        if !who.is_metastore_admin {
            self.record_audit(&ctx.principal, "bulkCreateTables", Some(ms), AuditDecision::Deny, catalog);
            return Err(UcError::PermissionDenied("metastore admin required for bulk import".into()));
        }
        let chain = self.lookup_chain(ms, &FullName::of(&[catalog]), "catalog")?;
        let cat = chain[0].clone();
        let chunk = chunk.max(1);
        let now = self.now_ms();
        let mut created = 0usize;
        // Container tree keys derive from names alone — identical to what
        // `tree_key_of` would compute, with no per-row ancestor reads.
        let mut cat_key = keys::tree_ms_prefix(ms);
        keys::tree_push_child(&mut cat_key, SecurableKind::Catalog.name_group(), catalog);
        for spec in specs {
            validate_object_name(&spec.name)?;
            let mut schema_key = cat_key.clone();
            keys::tree_push_child(&mut schema_key, SecurableKind::Schema.name_group(), &spec.name);
            let mut start = 0usize;
            let mut first = true;
            // The first chunk of a schema also ensures the schema row, so
            // an empty schema still costs exactly one commit.
            while first || start < spec.tables.len() {
                first = false;
                let end = (start + chunk).min(spec.tables.len());
                let batch = &spec.tables[start..end];
                created += self.write_ms(ms, |tx, _ver, fx| {
                    // The catalog must still be live in this transaction:
                    // drops race bulk imports like any other create.
                    let cat_live = tx
                        .get(T_ENTITY, &keys::ent_key(ms, &cat.id))
                        .map(|raw| Entity::decode(&raw))
                        .transpose()?
                        .is_some_and(|e| e.is_active());
                    if !cat_live {
                        return Err(UcError::NotFound(catalog.to_string()));
                    }
                    let mut n = 0usize;
                    let schema_id = match tx.get(T_TREE, &schema_key) {
                        Some(raw) => Entity::decode(&raw)?.id,
                        None => {
                            let ent = Entity::new(
                                SecurableKind::Schema,
                                &spec.name,
                                Some(cat.id.clone()),
                                ms.clone(),
                                &ctx.principal,
                                now,
                            );
                            n += 1;
                            fx.upsert_at(tx, ent, ChangeOp::Create, schema_key.clone()).id.clone()
                        }
                    };
                    // One children scan dedups the whole chunk; inserting
                    // as we go also catches duplicates within the batch.
                    let group_prefix =
                        keys::tree_group_prefix(&schema_key, SecurableKind::Table.name_group());
                    let mut existing: std::collections::HashSet<String> = tx
                        .scan_prefix(T_TREE, &group_prefix)
                        .into_iter()
                        .map(|(k, _)| k)
                        .collect();
                    for t in batch {
                        validate_object_name(t)?;
                        let mut tk = schema_key.clone();
                        keys::tree_push_child(&mut tk, SecurableKind::Table.name_group(), t);
                        if !existing.insert(tk.clone()) {
                            continue;
                        }
                        let mut ent = Entity::new(
                            SecurableKind::Table,
                            t,
                            Some(schema_id.clone()),
                            ms.clone(),
                            &ctx.principal,
                            now,
                        );
                        ent.set_table_schema(columns);
                        ent.properties.insert(
                            props::TABLE_TYPE.to_string(),
                            TableType::Managed.as_str().to_string(),
                        );
                        ent.properties.insert(
                            props::FORMAT.to_string(),
                            TableFormat::Delta.as_str().to_string(),
                        );
                        (manifest(ent.kind).validate)(&ent)?;
                        fx.upsert_at(tx, ent, ChangeOp::Create, tk);
                        n += 1;
                    }
                    Ok(n)
                })?;
                start = end;
            }
        }
        self.record_audit(
            &ctx.principal,
            "bulkCreateTables",
            Some(&cat.id),
            AuditDecision::Allow,
            format!("{catalog} ({created} entities)"),
        );
        Ok(created)
    }

    /// Create a shallow clone of a table: a new relation that shares the
    /// source's data files at a pinned version (zero-copy). Per §4.3.2,
    /// SELECT on the clone grants access to its data even without
    /// privileges on the base table — the same view-style semantics, so
    /// the base rides along as a resolved dependency.
    pub fn create_shallow_clone(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        source: &FullName,
        source_version: i64,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_shallow_clone", ctx, ms);
        let full = self.authorize_create_in_schema(ctx, ms, name, SecurableKind::Table)?;
        let schema_ent = full[0].clone();
        let src_chain = self.lookup_chain(ms, source, "relation")?;
        let src = src_chain[0].clone();
        if src.kind != SecurableKind::Table || src.storage_path.is_none() {
            return Err(UcError::InvalidArgument(format!(
                "{source} is not a cloneable storage-backed table"
            )));
        }
        // the cloner must be able to read the source
        let who = self.authz_context(ms, &ctx.principal)?;
        let src_full = self.chain_from_entity(ms, src.clone())?;
        if !Self::authz_of(&src_full).can_read_data(&who, crate::authz::Privilege::Select) {
            self.record_audit(&ctx.principal, "createShallowClone", Some(&src.id), AuditDecision::Deny, source);
            return Err(UcError::PermissionDenied(format!(
                "SELECT on {source} required to clone it"
            )));
        }
        let now = self.now_ms();
        let leaf = Self::leaf_of(name)?;
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let mut ent = Entity::new(
                SecurableKind::Table,
                &leaf,
                Some(schema_ent.id.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, name)?;
            ent.set_table_schema(&src.table_schema()?);
            ent.properties
                .insert(props::TABLE_TYPE.to_string(), TableType::ShallowClone.as_str().to_string());
            if let Some(f) = src.properties.get(props::FORMAT) {
                ent.properties.insert(props::FORMAT.to_string(), f.clone());
            }
            ent.properties.insert(props::CLONE_BASE.to_string(), src.id.to_string());
            ent.properties
                .insert("clone_version".to_string(), source_version.to_string());
            // The clone has no storage of its own: data access flows
            // through the resolved base dependency.
            ent.set_dependencies(std::slice::from_ref(&src.id));
            (manifest(ent.kind).validate)(&ent)?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createShallowClone", Some(&created.id), AuditDecision::Allow, format!("{source} -> {name}"));
        Ok(created)
    }

    /// Create a view over other relations. The creator must be able to
    /// read every base relation; afterwards, SELECT on the view suffices
    /// for readers (view-based access control, §4.3.2).
    pub fn create_view(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        view_sql: &str,
        columns: Schema,
        dependencies: &[FullName],
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_view", ctx, ms);
        let full = self.authorize_create_in_schema(ctx, ms, name, SecurableKind::View)?;
        let schema_ent = full[0].clone();
        let who = self.authz_context(ms, &ctx.principal)?;
        let mut dep_ids = Vec::new();
        for dep in dependencies {
            let dep_chain = self.lookup_chain(ms, dep, "relation")?;
            let dep_full = self.chain_from_entity(ms, dep_chain[0].clone())?;
            let authz = Self::authz_of(&dep_full);
            if !authz.can_read_data(&who, crate::authz::Privilege::Select) {
                self.record_audit(&ctx.principal, "createView", Some(&dep_chain[0].id), AuditDecision::Deny, dep);
                return Err(UcError::PermissionDenied(format!(
                    "view creator needs SELECT on {dep}"
                )));
            }
            dep_ids.push(dep_chain[0].id.clone());
        }
        let now = self.now_ms();
        let leaf = Self::leaf_of(name)?;
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let mut ent = Entity::new(
                SecurableKind::View,
                &leaf,
                Some(schema_ent.id.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, name)?;
            ent.set_table_schema(&columns);
            ent.properties.insert(props::TABLE_TYPE.to_string(), TableType::View.as_str().to_string());
            ent.properties.insert(props::VIEW_SQL.to_string(), view_sql.to_string());
            ent.set_dependencies(&dep_ids);
            (manifest(ent.kind).validate)(&ent)?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createView", Some(&created.id), AuditDecision::Allow, name);
        Ok(created)
    }

    /// Create a volume (managed unless an external path is given).
    pub fn create_volume(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        external_path: Option<&str>,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_volume", ctx, ms);
        let full = self.authorize_create_in_schema(ctx, ms, name, SecurableKind::Volume)?;
        let schema_ent = full[0].clone();
        if let Some(p) = external_path {
            let parsed = StoragePath::parse(p).map_err(|e| UcError::InvalidArgument(e.to_string()))?;
            self.authorize_external_path(ctx, ms, &parsed)?;
        }
        let now = self.now_ms();
        let leaf = Self::leaf_of(name)?;
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let mut ent = Entity::new(
                SecurableKind::Volume,
                &leaf,
                Some(schema_ent.id.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, name)?;
            let path = match external_path {
                Some(p) => StoragePath::parse(p).map_err(|e| UcError::InvalidArgument(e.to_string()))?,
                None => self.managed_path(ms, SecurableKind::Volume, &ent.id)?,
            };
            paths::register_path(tx, ms, &path, &ent.id)?;
            ent.storage_path = Some(path.to_string());
            ent.properties.insert(
                props::TABLE_TYPE.to_string(),
                if external_path.is_some() { "EXTERNAL" } else { "MANAGED" }.to_string(),
            );
            (manifest(ent.kind).validate)(&ent)?;
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createVolume", Some(&created.id), AuditDecision::Allow, name);
        Ok(created)
    }

    /// Create a SQL function.
    pub fn create_function(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        body: &str,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_function", ctx, ms);
        let full = self.authorize_create_in_schema(ctx, ms, name, SecurableKind::Function)?;
        let schema_ent = full[0].clone();
        let now = self.now_ms();
        let leaf = Self::leaf_of(name)?;
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let mut ent = Entity::new(
                SecurableKind::Function,
                &leaf,
                Some(schema_ent.id.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, name)?;
            ent.properties.insert("body".to_string(), body.to_string());
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createFunction", Some(&created.id), AuditDecision::Allow, name);
        Ok(created)
    }

    /// Create a registered model (the MLflow registry asset type, §4.2.3).
    pub fn create_registered_model(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_registered_model", ctx, ms);
        let full = self.authorize_create_in_schema(ctx, ms, name, SecurableKind::RegisteredModel)?;
        let schema_ent = full[0].clone();
        let now = self.now_ms();
        let leaf = Self::leaf_of(name)?;
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let mut ent = Entity::new(
                SecurableKind::RegisteredModel,
                &leaf,
                Some(schema_ent.id.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, name)?;
            ent.properties.insert("next_version".to_string(), "1".to_string());
            let path = self.managed_path(ms, SecurableKind::RegisteredModel, &ent.id)?;
            paths::register_path(tx, ms, &path, &ent.id)?;
            ent.storage_path = Some(path.to_string());
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createRegisteredModel", Some(&created.id), AuditDecision::Allow, name);
        Ok(created)
    }

    /// Create the next version of a registered model. Returns the version
    /// entity and its number. The version's artifacts live under the
    /// model's managed path (governed by the model's chain, so the path is
    /// deliberately not separately registered in the path index).
    pub fn create_model_version(
        &self,
        ctx: &Context,
        ms: &Uid,
        model_name: &FullName,
    ) -> UcResult<(Arc<Entity>, u64)> {
        let _api = self.api_enter_t("create_model_version", ctx, ms);
        let chain = self.lookup_chain(ms, model_name, SecurableKind::RegisteredModel.name_group())?;
        let model = chain[0].clone();
        if model.kind != SecurableKind::RegisteredModel {
            return Err(UcError::InvalidArgument(format!("{model_name} is not a model")));
        }
        let full = self.chain_from_entity(ms, model.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let authz = Self::authz_of(&full);
        if !(authz.has_admin_authority(&who) || authz.has_privilege(&who, crate::authz::Privilege::Modify)) {
            self.record_audit(&ctx.principal, "createModelVersion", Some(&model.id), AuditDecision::Deny, model_name);
            return Err(UcError::PermissionDenied("MODIFY on model required".into()));
        }
        let now = self.now_ms();
        let result = self.write_ms(ms, |tx, _ver, fx| {
            // Re-read the model inside the transaction for a race-free
            // version counter.
            let raw = tx
                .get(T_ENTITY, &keys::ent_key(ms, &model.id))
                .ok_or_else(|| UcError::NotFound(model_name.to_string()))?;
            let mut model_now = Entity::decode(&raw)?;
            if !model_now.is_active() {
                return Err(UcError::NotFound(model_name.to_string()));
            }
            let version: u64 = model_now
                .properties
                .get("next_version")
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            model_now
                .properties
                .insert("next_version".to_string(), (version + 1).to_string());
            model_now.updated_at_ms = now;

            let mut ver_ent = Entity::new(
                SecurableKind::ModelVersion,
                &format!("v{version}"),
                Some(model.id.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            ver_ent.properties.insert(props::MODEL_VERSION.to_string(), version.to_string());
            ver_ent.properties.insert(props::MODEL_STAGE.to_string(), "None".to_string());
            if let Some(base) = &model_now.storage_path {
                ver_ent.storage_path = Some(format!("{base}/v{version}"));
            }
            (manifest(ver_ent.kind).validate)(&ver_ent)?;
            fx.upsert(tx, model_now, ChangeOp::Update)?;
            let arc = fx.upsert(tx, ver_ent, ChangeOp::Create)?;
            Ok((arc, version))
        })?;
        self.record_audit(&ctx.principal, "createModelVersion", Some(&result.0.id), AuditDecision::Allow, model_name);
        Ok(result)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Fetch a securable by qualified name, enforcing visibility.
    pub fn get_securable(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("get_securable", ctx, ms);
        // Reuse the resolved chain for the ancestor walk (extend_chain only
        // fetches what lookup_chain didn't) and evaluate `can_see` over the
        // borrowed entities — this is the hottest read path in the service.
        let full = self.extend_chain(ms, self.lookup_chain(ms, name, leaf_group)?)?;
        self.enforce_workspace_binding(ctx, &full)?;
        let root_ent = full.last().ok_or_else(|| UcError::NotFound(name.to_string()))?;
        let who = self.authz_context_with(root_ent, &ctx.principal)?;
        if !crate::authz::decision::can_see(&full, &who) {
            self.record_audit(&ctx.principal, "getSecurable", Some(&full[0].id), AuditDecision::Deny, name);
            // existence is hidden from unprivileged callers
            return Err(UcError::NotFound(name.to_string()));
        }
        self.record_audit(&ctx.principal, "getSecurable", Some(&full[0].id), AuditDecision::Allow, name);
        Ok(full[0].clone())
    }

    /// Fetch a table or view by name.
    pub fn get_table(&self, ctx: &Context, ms: &Uid, name: &str) -> UcResult<Arc<Entity>> {
        self.get_securable(ctx, ms, &FullName::parse(name)?, "relation")
    }

    /// List catalogs visible to the caller: one child-only scan of the
    /// metastore's catalog group (see [`Self::visible_children`]).
    pub fn list_catalogs(&self, ctx: &Context, ms: &Uid) -> UcResult<Vec<Arc<Entity>>> {
        let _api = self.api_enter_t("list_catalogs", ctx, ms);
        let who = self.authz_context(ms, &ctx.principal)?;
        let prefix = keys::tree_group_prefix(&keys::tree_ms_prefix(ms), SecurableKind::Catalog.name_group());
        self.visible_children(ms, &who, &prefix)
    }

    /// The children under a tree-key `prefix` that `who` can see. One
    /// child-only scan of the tree index returns every child *with its
    /// full entity row* and skips everything deeper, so the cost is one
    /// scan over O(children) keys. Every entity is decoded from the scan
    /// itself, not read through the node cache: the cache may sit at a
    /// different metastore version, and mixing the two yields a listing
    /// no single version ever held (a concurrently updated child shows
    /// its old state beside a concurrently created one). The history
    /// checker flags such composite listings.
    pub(crate) fn visible_children(
        &self,
        ms: &Uid,
        who: &crate::authz::decision::AuthzContext,
        prefix: &str,
    ) -> UcResult<Vec<Arc<Entity>>> {
        let rt = self.db.begin_read();
        let mut out = Vec::new();
        for (_, raw) in rt.scan_children(T_TREE, prefix) {
            let ent = Arc::new(Entity::decode(&raw)?);
            let full = self.chain_from_entity(ms, ent.clone())?;
            if Self::authz_of(&full).can_see(who) {
                out.push(ent);
            }
        }
        super::history_read_event(crate::cache::read_ms_version(&rt, ms));
        Ok(out)
    }

    /// List the children of a container (catalog → schemas, schema →
    /// assets), optionally restricted to one namespace group.
    pub fn list_children(
        &self,
        ctx: &Context,
        ms: &Uid,
        parent: &FullName,
        group: Option<&str>,
    ) -> UcResult<Vec<Arc<Entity>>> {
        let _api = self.api_enter_t("list_children", ctx, ms);
        let parent_group = if parent.len() == 1 { "catalog" } else { "schema" };
        let chain = self.lookup_chain(ms, parent, parent_group)?;
        let parent_ent = chain[0].clone();
        let parent_full = self.chain_from_entity(ms, parent_ent.clone())?;
        self.enforce_workspace_binding(ctx, &parent_full)?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let mut parent_key = keys::tree_ms_prefix(ms);
        for e in parent_full.iter().rev().filter(|e| e.kind != SecurableKind::Metastore) {
            keys::tree_push_child(&mut parent_key, e.kind.name_group(), &e.name);
        }
        let prefix = match group {
            Some(g) => keys::tree_group_prefix(&parent_key, g),
            None => parent_key,
        };
        self.visible_children(ms, &who, &prefix)
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Internal: rewrite an entity by id through the write protocol.
    pub(crate) fn update_entity_by_id(
        &self,
        ms: &Uid,
        id: &Uid,
        f: impl Fn(&mut Entity) -> UcResult<()>,
    ) -> UcResult<Arc<Entity>> {
        let now = self.now_ms();
        self.write_ms(ms, |tx, _ver, fx| rewrite_entity(tx, fx, ms, id, now, &f))
    }

    /// Update a securable's comment (MODIFY or admin authority).
    pub fn update_comment(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
        comment: &str,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("update_comment", ctx, ms);
        let chain = self.lookup_chain(ms, name, leaf_group)?;
        let target = chain[0].clone();
        if !manifest(target.kind).updatable_fields.contains(&"comment") {
            return Err(UcError::UnsupportedOperation(format!(
                "{} does not support comment updates",
                target.kind
            )));
        }
        let full = self.chain_from_entity(ms, target.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let authz = Self::authz_of(&full);
        if !(authz.has_admin_authority(&who) || authz.has_privilege(&who, crate::authz::Privilege::Modify)) {
            self.record_audit(&ctx.principal, "updateComment", Some(&target.id), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied("MODIFY required".into()));
        }
        let updated = self.update_entity_by_id(ms, &target.id, |e| {
            e.comment = Some(comment.to_string());
            Ok(())
        })?;
        self.record_audit(&ctx.principal, "updateComment", Some(&target.id), AuditDecision::Allow, name);
        Ok(updated)
    }

    /// Transfer ownership (admin authority required).
    pub fn transfer_ownership(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
        new_owner: &str,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("transfer_ownership", ctx, ms);
        let chain = self.lookup_chain(ms, name, leaf_group)?;
        let target = chain[0].clone();
        let full = self.chain_from_entity(ms, target.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).has_admin_authority(&who) {
            self.record_audit(&ctx.principal, "transferOwnership", Some(&target.id), AuditDecision::Deny, new_owner);
            return Err(UcError::PermissionDenied("admin authority required".into()));
        }
        let updated = self.update_entity_by_id(ms, &target.id, |e| {
            e.owner = new_owner.to_string();
            Ok(())
        })?;
        self.record_audit(&ctx.principal, "transferOwnership", Some(&target.id), AuditDecision::Allow, new_owner);
        Ok(updated)
    }

    /// Rename a securable in place (admin authority). IDs are stable, so
    /// grants, lineage, shares, and view dependencies survive the rename;
    /// only tree rows move.
    pub fn rename_securable(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
        new_name: &str,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("rename_securable", ctx, ms);
        validate_object_name(new_name)?;
        let chain = self.lookup_chain(ms, name, leaf_group)?;
        let target = chain[0].clone();
        if target.kind.is_container() && target.kind != SecurableKind::Schema {
            // renaming catalogs would silently break external references;
            // UC likewise restricts it
            return Err(UcError::UnsupportedOperation(format!(
                "{} cannot be renamed",
                target.kind
            )));
        }
        let full = self.chain_from_entity(ms, target.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).has_admin_authority(&who) {
            self.record_audit(&ctx.principal, "renameSecurable", Some(&target.id), AuditDecision::Deny, new_name);
            return Err(UcError::PermissionDenied("admin authority required to rename".into()));
        }
        let now = self.now_ms();
        let renamed = self.write_ms(ms, |tx, _ver, fx| {
            let raw = tx
                .get(T_ENTITY, &keys::ent_key(ms, &target.id))
                .ok_or_else(|| UcError::NotFound(name.to_string()))?;
            let mut ent = Entity::decode(&raw)?;
            if !ent.is_active() {
                return Err(UcError::NotFound(name.to_string()));
            }
            // The node's tree key embeds its name, so its row — and, for a
            // schema, every descendant row sharing the prefix — moves. One
            // range scan rewrites them; descendant *values* are untouched
            // (they embed parent ids, not names).
            let old_tree = super::tree_key_of(tx, &ent)?;
            ent.name = new_name.to_string();
            ent.updated_at_ms = now;
            let new_tree = super::tree_key_of(tx, &ent)?;
            if new_tree != old_tree && tx.get(T_TREE, &new_tree).is_some() {
                return Err(UcError::AlreadyExists(new_name.to_string()));
            }
            for (k, v) in tx.scan_prefix(T_TREE, &old_tree) {
                tx.delete(T_TREE, &k);
                if k != old_tree {
                    let mut moved = new_tree.clone();
                    moved.push_str(&k[old_tree.len()..]);
                    tx.put(T_TREE, &moved, v);
                }
                fx.dropped_names.push(k);
            }
            Ok(fx.upsert_at(tx, ent, ChangeOp::Update, new_tree))
        })?;
        self.record_audit(&ctx.principal, "renameSecurable", Some(&renamed.id), AuditDecision::Allow, format!("{name} -> {new_name}"));
        Ok(renamed)
    }

    /// Bind a catalog to a set of workspaces; an empty list clears the
    /// binding. Admin authority on the catalog required.
    pub fn set_catalog_bindings(
        &self,
        ctx: &Context,
        ms: &Uid,
        catalog: &str,
        workspaces: &[&str],
    ) -> UcResult<()> {
        let _api = self.api_enter_t("set_catalog_bindings", ctx, ms);
        let chain = self.lookup_chain(ms, &FullName::of(&[catalog]), "catalog")?;
        let target = chain[0].clone();
        let full = self.chain_from_entity(ms, target.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).has_admin_authority(&who) {
            self.record_audit(&ctx.principal, "setCatalogBindings", Some(&target.id), AuditDecision::Deny, catalog);
            return Err(UcError::PermissionDenied("admin authority required for bindings".into()));
        }
        let list: Vec<String> = workspaces.iter().map(|w| w.to_string()).collect();
        self.update_entity_by_id(ms, &target.id, |e| {
            e.set_workspace_bindings(&list);
            Ok(())
        })?;
        self.record_audit(&ctx.principal, "setCatalogBindings", Some(&target.id), AuditDecision::Allow, format!("{list:?}"));
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deletion and garbage collection
    // ------------------------------------------------------------------

    /// Soft-delete a securable (admin authority). Containers cascade to
    /// all descendants. Returns the number of entities soft-deleted.
    pub fn drop_securable(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &FullName,
        leaf_group: &str,
    ) -> UcResult<usize> {
        let _api = self.api_enter_t("drop_securable", ctx, ms);
        let chain = self.lookup_chain(ms, name, leaf_group)?;
        let target = chain[0].clone();
        let full = self.chain_from_entity(ms, target.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).has_admin_authority(&who) {
            self.record_audit(&ctx.principal, "dropSecurable", Some(&target.id), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied("admin authority required to drop".into()));
        }
        let now = self.now_ms();
        let count = self.write_ms(ms, |tx, _ver, fx| {
            let mut count = 0;
            Self::soft_delete_subtree(tx, ms, &target, now, fx, &mut count)?;
            Ok(count)
        })?;
        self.record_audit(&ctx.principal, "dropSecurable", Some(&target.id), AuditDecision::Allow, format!("{name} ({count} entities)"));
        Ok(count)
    }

    /// Soft-delete `target` and every descendant in **one** range scan of
    /// the tree index, parents before children, each row carrying its full
    /// entity (a metastore's range is everything under
    /// [`keys::tree_ms_prefix`]). Per row: drop the tree row (which frees
    /// the name and hides the subtree from listings and resolution),
    /// unregister the storage path, and tombstone the entity row for GC.
    fn soft_delete_subtree(
        tx: &mut WriteTxn,
        ms: &Uid,
        target: &Entity,
        now: u64,
        fx: &mut WriteEffects,
        count: &mut usize,
    ) -> UcResult<()> {
        // Drops are by *identity*: `target` was resolved to an id at read
        // time, and only that entity (plus descendants) may die. Re-read it
        // at commit time — if it was dropped concurrently the drop counts
        // zero, even if another live entity now owns the same name (and
        // therefore the same tree key).
        let Some(raw) = tx.get(T_ENTITY, &keys::ent_key(ms, &target.id)) else {
            return Ok(());
        };
        let current = Entity::decode(&raw)?;
        if !current.is_active() {
            return Ok(());
        }
        let root_key = super::tree_key_of(tx, &current)?;
        for (tree_key, raw) in tx.scan_prefix(T_TREE, &root_key) {
            let mut ent = Entity::decode(&raw)?;
            if ent.state == LifecycleState::SoftDeleted {
                continue;
            }
            tx.delete(T_TREE, &tree_key);
            fx.dropped_names.push(tree_key);
            if let Some(p) = ent.storage_path.as_ref().and_then(|p| StoragePath::parse(p).ok()) {
                paths::unregister_path(tx, ms, &p);
            }
            ent.state = LifecycleState::SoftDeleted;
            ent.updated_at_ms = now;
            tx.put(T_ENTITY, &keys::ent_key(ms, &ent.id), ent.encode());
            fx.events.push((ent.id.clone(), ent.kind, ent.name.clone(), ChangeOp::Delete));
            fx.tombstones.push(ent.id.clone());
            *count += 1;
        }
        Ok(())
    }

    /// Garbage-collect soft-deleted entities: remove their rows, their
    /// catalog-owned commit history, and (for managed assets) their cloud
    /// storage. Returns (entities purged, storage objects deleted).
    pub fn purge_soft_deleted(&self, ms: &Uid) -> UcResult<(usize, usize)> {
        let _api = self.api_enter_p("purge_soft_deleted", super::NO_TENANT, Some(ms));
        // Collect victims outside the write to keep the transaction small.
        let rt = self.db.begin_read();
        let victims: Vec<Entity> = rt
            .scan_prefix(T_ENTITY, &keys::ent_ms_prefix(ms))
            .into_iter()
            .filter_map(|(_, raw)| Entity::decode(&raw).ok())
            .filter(|e| e.state == LifecycleState::SoftDeleted)
            .collect();
        drop(rt);
        let mut objects_deleted = 0;
        for victim in &victims {
            // Managed storage cleanup happens before metadata removal so a
            // crash leaves the tombstone for a retry.
            let managed = victim.table_type() == Some(TableType::Managed)
                || victim.kind == SecurableKind::RegisteredModel;
            if managed {
                if let Some(path) = victim.storage_path.as_ref().and_then(|p| StoragePath::parse(p).ok()) {
                    if let Ok(root) = self.root_for_bucket(ms, path.bucket()) {
                        let cred = uc_cloudstore::Credential::Root(root);
                        if let Ok(objs) = self.store.list(&cred, &path) {
                            for o in objs {
                                if self.store.delete(&cred, &o.path).is_ok() {
                                    objects_deleted += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        let purged = self.write_ms(ms, |tx, _ver, _fx| {
            let mut purged = 0;
            for victim in &victims {
                if tx.get(T_ENTITY, &keys::ent_key(ms, &victim.id)).is_some() {
                    tx.delete(T_ENTITY, &keys::ent_key(ms, &victim.id));
                    // Drop catalog-owned commit history.
                    for (k, _) in tx.scan_prefix(T_COMMIT, &keys::commit_prefix(ms, &victim.id)) {
                        tx.delete(T_COMMIT, &k);
                    }
                    purged += 1;
                }
            }
            Ok(purged)
        })?;
        // GC is a destructive governance action: it lands in the audit
        // trail like any other mutation (run as the node, not a tenant).
        self.record_audit(
            super::NO_TENANT,
            "purgeSoftDeleted",
            Some(ms),
            AuditDecision::Allow,
            format!("purged {purged} row(s), {objects_deleted} object(s)"),
        );
        Ok((purged, objects_deleted))
    }
}
