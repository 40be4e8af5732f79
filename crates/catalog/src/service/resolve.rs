//! Batched metadata resolution — the "life of a SQL query" entry point
//! (§3.4 step 2).
//!
//! One API call authorizes and returns everything an engine needs to plan
//! a query over a set of relations: entity metadata, column schemas,
//! transitively resolved view dependencies, applicable FGAC policies
//! (trusted engines only), ABAC-derived policies, and — optionally —
//! read credentials for every storage-backed securable involved. Nested
//! views over hundreds of base tables resolve in a single round trip,
//! which is the batching optimization §4.5 credits for interactive-query
//! latency.
//!
//! [`UnityCatalog::resolve_for_query`] is the only relation resolver: the
//! engine, both REST route names and the serving plane all call it.

use std::sync::Arc;

use uc_cloudstore::{AccessLevel, TempCredential};
use uc_delta::value::Schema;

use crate::audit::AuditDecision;
use crate::authz::abac::AbacPolicy;
use crate::authz::decision::AuthzContext;
use crate::authz::fgac::FgacPolicies;
use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::service::{Context, UnityCatalog};
use crate::types::{FullName, SecurableKind};

/// Maximum view-nesting depth resolved in one call.
const MAX_DEPTH: usize = 12;

/// One fully resolved securable.
#[derive(Debug, Clone)]
pub struct ResolvedSecurable {
    pub entity: Arc<Entity>,
    /// Column schema for relations.
    pub schema: Option<Schema>,
    /// FGAC policies the engine must enforce (empty when none apply; only
    /// populated for trusted engines).
    pub fgac: FgacPolicies,
    /// Transitive dependencies (views → base relations).
    pub dependencies: Vec<ResolvedSecurable>,
    /// Read credential for storage-backed securables, when requested.
    pub read_credential: Option<TempCredential>,
}

impl UnityCatalog {
    /// Resolve all `refs` (tables/views) for a read query in one call.
    /// Each ref resolves whole with [`Self::lookup_chain`], so its chain
    /// and its leaf are read at one metastore version.
    pub fn resolve_for_query(
        &self,
        ctx: &Context,
        ms: &Uid,
        refs: &[FullName],
        want_credentials: bool,
    ) -> UcResult<Vec<ResolvedSecurable>> {
        let _api = self.api_enter_t("resolve_for_query", ctx, ms);
        let who = self.authz_context(ms, &ctx.principal)?;
        let mut out = Vec::with_capacity(refs.len());
        for name in refs {
            // Reuse the resolved chain for the ancestor walk and evaluate
            // access over the borrowed entities (no AuthzNode copies).
            let full = self.extend_chain(ms, self.lookup_chain(ms, name, "relation")?)?;
            let entity = full[0].clone();
            self.enforce_workspace_binding(ctx, &full)?;
            if !crate::authz::decision::can_read_data(&full, &who, Privilege::Select) {
                self.record_audit(&ctx.principal, "resolveForQuery", Some(&entity.id), AuditDecision::Deny, name);
                return Err(UcError::PermissionDenied(format!(
                    "SELECT (plus USE on containers) required on {name}"
                )));
            }
            let resolved =
                self.resolve_entity(ctx, ms, &who, entity, &full, want_credentials, 0)?;
            self.record_audit(&ctx.principal, "resolveForQuery", Some(&resolved.entity.id), AuditDecision::Allow, name);
            out.push(resolved);
        }
        Ok(out)
    }

    /// Resolve one entity plus its dependency closure. Dependencies of a
    /// view are resolved *without* caller privilege checks: SELECT on the
    /// view grants access to the data it exposes (view-based access
    /// control) — the engine receives base metadata and credentials even
    /// when the caller has no direct grants on the base tables.
    #[allow(clippy::too_many_arguments)]
    fn resolve_entity(
        &self,
        ctx: &Context,
        ms: &Uid,
        who: &AuthzContext,
        entity: Arc<Entity>,
        full_chain: &[Arc<Entity>],
        want_credentials: bool,
        depth: usize,
    ) -> UcResult<ResolvedSecurable> {
        if depth > MAX_DEPTH {
            return Err(UcError::InvalidArgument(format!(
                "view nesting exceeds {MAX_DEPTH} levels at {}",
                entity.name
            )));
        }
        let fgac = self.effective_fgac(ms, who, &entity, full_chain)?;
        if !fgac.is_empty() && !ctx.is_trusted_engine() {
            self.record_audit(&ctx.principal, "resolveForQuery", Some(&entity.id), AuditDecision::Deny, &entity.name);
            return Err(UcError::PermissionDenied(format!(
                "{} carries fine-grained policies; a trusted engine (or the data \
                 filtering service) is required",
                entity.name
            )));
        }
        let schema = entity.table_schema().ok();
        let mut dependencies = Vec::new();
        for dep_id in entity.dependencies() {
            let dep = self
                .entity_by_id(ms, &dep_id)?
                .ok_or_else(|| UcError::NotFound(format!("view dependency {dep_id} of {}", entity.name)))?;
            let dep_chain = self.chain_from_entity(ms, dep.clone())?;
            dependencies.push(self.resolve_entity(ctx, ms, who, dep, &dep_chain, want_credentials, depth + 1)?);
        }
        let read_credential = if want_credentials && entity.storage_path.is_some() {
            Some(self.mint_for_entity(ms, &entity, AccessLevel::Read)?)
        } else {
            None
        };
        Ok(ResolvedSecurable { entity, schema, fgac, dependencies, read_credential })
    }

    /// Assemble the FGAC policies in force for `who` on `entity`:
    /// directly attached row filters / column masks, plus ABAC-derived
    /// masks and access restrictions from container-scope policies.
    pub(crate) fn effective_fgac(
        &self,
        _ms: &Uid,
        who: &AuthzContext,
        entity: &Entity,
        full_chain: &[Arc<Entity>],
    ) -> UcResult<FgacPolicies> {
        let mut fgac = FgacPolicies {
            row_filter: entity.row_filter(),
            column_masks: entity.column_masks(),
        };
        // ABAC: policies attach to containers in the chain (schema,
        // catalog, metastore) and match tags dynamically.
        let entity_tags = entity.tags();
        let column_tags = entity.column_tags();
        let mut policies: Vec<AbacPolicy> = Vec::new();
        for container in full_chain.iter().filter(|e| e.kind.is_container()) {
            policies.extend(container.abac_policies());
        }
        for policy in &policies {
            if let Some(allowed) = policy.evaluate_restriction(&entity_tags, &who.groups) {
                if !allowed {
                    self.record_audit(&who.principal, "resolveForQuery", None, AuditDecision::Deny, &entity.name);
                    return Err(UcError::PermissionDenied(format!(
                        "ABAC policy '{}' restricts access to {}",
                        policy.name, entity.name
                    )));
                }
            }
            for mask in policy.derive_masks(&column_tags, &who.groups) {
                // Directly attached masks take precedence over derived ones.
                if !fgac.column_masks.iter().any(|m| m.column == mask.column) {
                    fgac.column_masks.push(mask);
                }
            }
        }
        Ok(fgac)
    }

    /// Resolve a model version for serving: metadata plus an artifact-read
    /// credential — the MLflow `RestStore`/`ArtifactRepository` flow
    /// (§4.2.3).
    pub fn resolve_model_version(
        &self,
        ctx: &Context,
        ms: &Uid,
        model: &FullName,
        version: u64,
    ) -> UcResult<ResolvedSecurable> {
        let _api = self.api_enter_t("resolve_model_version", ctx, ms);
        let mut parts: Vec<&str> = model.parts.iter().map(|s| s.as_str()).collect();
        let vname = format!("v{version}");
        parts.push(&vname);
        let name = FullName::of(&parts);
        let chain = self.lookup_chain(ms, &name, SecurableKind::ModelVersion.name_group())?;
        let entity = chain[0].clone();
        let full = self.chain_from_entity(ms, entity.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        let authz = Self::authz_of(&full);
        if !authz.can_read_data(&who, Privilege::Execute) {
            self.record_audit(&ctx.principal, "resolveModelVersion", Some(&entity.id), AuditDecision::Deny, name);
            return Err(UcError::PermissionDenied(format!(
                "EXECUTE (plus USE on containers) required on {model}"
            )));
        }
        let read_credential = Some(self.mint_for_entity(ms, &entity, AccessLevel::Read)?);
        self.record_audit(&ctx.principal, "resolveModelVersion", Some(&entity.id), AuditDecision::Allow, name);
        Ok(ResolvedSecurable {
            schema: None,
            fgac: FgacPolicies::default(),
            dependencies: Vec::new(),
            read_credential,
            entity,
        })
    }
}
