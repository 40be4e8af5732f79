//! Catalog federation (§4.2.4): mount foreign catalogs and mirror their
//! metadata on demand.
//!
//! Mirroring is engine-driven, matching the paper's current
//! implementation: the engine already has connectivity to the foreign
//! catalog, fetches metadata during query execution, and pushes it into
//! the federated catalog via [`UnityCatalog::mirror_table`]. Simple
//! clients that only talk to UC (a UI) see whatever was last mirrored —
//! the staleness trade-off §4.2.4 describes.

use std::sync::Arc;

use uc_delta::value::Schema;

use crate::audit::AuditDecision;
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::{props, Entity};
use crate::model::keys::{self, T_TREE};
use crate::service::{claim_name, Context, UnityCatalog};
use crate::types::{FullName, SecurableKind, TableType};

/// What a connector returns for one foreign table.
#[derive(Debug, Clone)]
pub struct ForeignTableMeta {
    pub name: String,
    pub columns: Schema,
    pub storage_path: Option<String>,
    /// Foreign system type, e.g. "hive", "mysql", "snowflake".
    pub foreign_type: String,
}

/// A client of some foreign catalog. Implementations live with the system
/// they connect to (e.g. `uc-hms` provides a Hive Metastore connector).
pub trait ForeignCatalogConnector: Send + Sync {
    fn connector_type(&self) -> &str;
    fn list_schemas(&self) -> UcResult<Vec<String>>;
    fn list_tables(&self, schema: &str) -> UcResult<Vec<String>>;
    fn get_table(&self, schema: &str, table: &str) -> UcResult<ForeignTableMeta>;
}

impl UnityCatalog {
    /// Register a connection to a foreign catalog.
    pub fn create_connection(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        endpoint: &str,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_connection", ctx, ms);
        crate::types::validate_object_name(name)?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let authz = Self::authz_of(&[self.get_metastore(ms)?]);
        if !(who.is_metastore_admin
            || authz.has_privilege(&who, crate::authz::Privilege::CreateConnection))
        {
            self.record_audit(&ctx.principal, "createConnection", Some(ms), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied("CREATE_CONNECTION required".into()));
        }
        let now = self.now_ms();
        let created = self.write_ms(ms, |tx, _ver, fx| {
            let mut ent = Entity::new(
                SecurableKind::Connection,
                name,
                Some(ms.clone()),
                ms.clone(),
                &ctx.principal,
                now,
            );
            let tk = claim_name(tx, &ent, name)?;
            ent.properties.insert(props::ENDPOINT.to_string(), endpoint.to_string());
            Ok(fx.upsert_at(tx, ent, ChangeOp::Create, tk))
        })?;
        self.record_audit(&ctx.principal, "createConnection", Some(&created.id), AuditDecision::Allow, endpoint);
        Ok(created)
    }

    /// Create a federated catalog mirroring a foreign catalog reachable
    /// through `connection_name`.
    pub fn create_federated_catalog(
        &self,
        ctx: &Context,
        ms: &Uid,
        name: &str,
        connection_name: &str,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("create_federated_catalog", ctx, ms);
        let connection = self
            .lookup_chain(ms, &FullName::of(&[connection_name]), SecurableKind::Connection.name_group())
            .map_err(|e| match e {
                UcError::NotFound(_) => UcError::NotFound(format!("connection {connection_name}")),
                e => e,
            })?[0]
            .clone();
        let catalog = self.create_catalog(ctx, ms, name)?;
        let updated = self.update_entity_by_id(ms, &catalog.id, |e| {
            e.properties
                .insert(props::CONNECTION_ID.to_string(), connection.id.to_string());
            e.properties.insert("federated".to_string(), "true".to_string());
            Ok(())
        })?;
        Ok(updated)
    }

    /// Push foreign-table metadata into a federated catalog (engine-driven
    /// on-demand mirroring). Creates the schema on first touch; updates
    /// the mirrored table if it already exists.
    pub fn mirror_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        federated_catalog: &str,
        schema_name: &str,
        meta: &ForeignTableMeta,
    ) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("mirror_table", ctx, ms);
        let cat = self.lookup_chain(ms, &FullName::of(&[federated_catalog]), "catalog")?[0].clone();
        if cat.properties.get("federated").map(|s| s.as_str()) != Some("true") {
            return Err(UcError::Federation(format!(
                "{federated_catalog} is not a federated catalog"
            )));
        }
        // Mirroring requires write authority on the federated catalog.
        let who = self.authz_context(ms, &ctx.principal)?;
        let full = self.chain_from_entity(ms, cat.clone())?;
        let authz = Self::authz_of(&full);
        if !(authz.has_admin_authority(&who)
            || authz.has_privilege(&who, crate::authz::Privilege::CreateTable))
        {
            self.record_audit(&ctx.principal, "mirrorTable", Some(&cat.id), AuditDecision::Deny, &meta.name);
            return Err(UcError::PermissionDenied(
                "CREATE_TABLE on the federated catalog required to mirror".into(),
            ));
        }
        // Ensure the schema exists.
        let schema_key = keys::tree_key(ms, &[("catalog", federated_catalog), ("schema", schema_name)]);
        let schema_ent = match self.lookup_chain(ms, &FullName::of(&[federated_catalog, schema_name]), "schema") {
            Ok(chain) => chain[0].clone(),
            Err(UcError::NotFound(_)) => {
                let now = self.now_ms();
                let cat_id = cat.id.clone();
                self.write_ms(ms, |tx, _ver, fx| {
                    if let Some(existing) = tx.get(T_TREE, &schema_key) {
                        // lost a race; reuse
                        return Ok(Arc::new(Entity::decode(&existing)?));
                    }
                    let ent = Entity::new(
                        SecurableKind::Schema,
                        schema_name,
                        Some(cat_id.clone()),
                        ms.clone(),
                        &ctx.principal,
                        now,
                    );
                    fx.upsert(tx, ent, ChangeOp::Create)
                })?
            }
            Err(e) => return Err(e),
        };
        // Upsert the mirrored table.
        let now = self.now_ms();
        let mut table_key = schema_key;
        keys::tree_push_child(&mut table_key, "relation", &meta.name);
        let mirrored = self.write_ms(ms, |tx, _ver, fx| {
            let mut ent = match tx.get(T_TREE, &table_key) {
                Some(existing) => Entity::decode(&existing)?,
                None => Entity::new(
                    SecurableKind::Table,
                    &meta.name,
                    Some(schema_ent.id.clone()),
                    ms.clone(),
                    &ctx.principal,
                    now,
                ),
            };
            ent.set_table_schema(&meta.columns);
            ent.properties
                .insert(props::TABLE_TYPE.to_string(), TableType::Foreign.as_str().to_string());
            ent.properties
                .insert(props::FOREIGN_TYPE.to_string(), meta.foreign_type.clone());
            if let Some(p) = &meta.storage_path {
                ent.storage_path = Some(p.clone());
            }
            ent.properties
                .insert("mirrored_at_ms".to_string(), now.to_string());
            ent.updated_at_ms = now;
            fx.upsert(tx, ent, ChangeOp::Update)
        })?;
        self.record_audit(&ctx.principal, "mirrorTable", Some(&mirrored.id), AuditDecision::Allow, format!("{federated_catalog}.{schema_name}.{}", meta.name));
        Ok(mirrored)
    }

    /// On-demand federated read, as an engine performs it: fetch the
    /// freshest metadata from the foreign catalog via `connector`, mirror
    /// it, and return the mirrored entity. Falls back to the mirror if the
    /// foreign catalog is unreachable.
    pub fn federated_get_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        federated_catalog: &str,
        schema: &str,
        table: &str,
        connector: &dyn ForeignCatalogConnector,
    ) -> UcResult<Arc<Entity>> {
        match connector.get_table(schema, table) {
            Ok(meta) => self.mirror_table(ctx, ms, federated_catalog, schema, &meta),
            Err(fetch_err) => {
                // Foreign catalog unavailable: serve the (possibly stale)
                // mirror if we have one.
                let name = FullName::of(&[federated_catalog, schema, table]);
                self.get_securable(ctx, ms, &name, "relation")
                    .map_err(|_| UcError::Federation(format!(
                        "foreign fetch failed ({fetch_err}) and no mirrored copy exists"
                    )))
            }
        }
    }
}
