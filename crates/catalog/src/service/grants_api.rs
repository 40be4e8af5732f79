//! Grant management APIs (§3.3).

use std::sync::Arc;

use crate::audit::AuditDecision;
use crate::authz::Privilege;
use crate::error::{UcError, UcResult};
use crate::events::ChangeOp;
use crate::ids::Uid;
use crate::model::entity::Entity;
use crate::model::manifest::manifest;
use crate::service::crud::rewrite_entity;
use crate::service::{Context, UnityCatalog};
use crate::types::FullName;

impl UnityCatalog {
    /// Grant a privilege on a securable to a principal or group. Requires
    /// admin authority over the securable (owner, MANAGE, container owner,
    /// or metastore admin).
    pub fn grant(
        &self,
        ctx: &Context,
        ms: &Uid,
        securable: &FullName,
        leaf_group: &str,
        grantee: &str,
        privilege: Privilege,
    ) -> UcResult<()> {
        let _api = self.api_enter_t("grant", ctx, ms);
        let chain = self.lookup_chain(ms, securable, leaf_group)?;
        let target = chain[0].clone();
        if privilege != Privilege::All && !manifest(target.kind).grantable.contains(&privilege) {
            return Err(UcError::InvalidArgument(format!(
                "{privilege} is not grantable on {}",
                target.kind
            )));
        }
        let full = self.chain_from_entity(ms, target.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).has_admin_authority(&who) {
            self.record_audit(&ctx.principal, "grant", Some(&target.id), AuditDecision::Deny, format!("{privilege} to {grantee}"));
            return Err(UcError::PermissionDenied(
                "admin authority required to grant".into(),
            ));
        }
        self.update_grants(ms, &target.id, |e| {
            e.add_grant(grantee, privilege);
        })?;
        self.record_audit(&ctx.principal, "grant", Some(&target.id), AuditDecision::Allow, format!("{privilege} to {grantee}"));
        Ok(())
    }

    /// Revoke a previously granted privilege.
    pub fn revoke(
        &self,
        ctx: &Context,
        ms: &Uid,
        securable: &FullName,
        leaf_group: &str,
        grantee: &str,
        privilege: Privilege,
    ) -> UcResult<()> {
        let _api = self.api_enter_t("revoke", ctx, ms);
        let chain = self.lookup_chain(ms, securable, leaf_group)?;
        let target = chain[0].clone();
        let full = self.chain_from_entity(ms, target.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).has_admin_authority(&who) {
            self.record_audit(&ctx.principal, "revoke", Some(&target.id), AuditDecision::Deny, format!("{privilege} from {grantee}"));
            return Err(UcError::PermissionDenied(
                "admin authority required to revoke".into(),
            ));
        }
        self.update_grants(ms, &target.id, |e| {
            e.remove_grant(grantee, privilege);
        })?;
        self.record_audit(&ctx.principal, "revoke", Some(&target.id), AuditDecision::Allow, format!("{privilege} from {grantee}"));
        Ok(())
    }

    /// List the grants directly on a securable (visible to callers who can
    /// see the securable).
    pub fn show_grants(
        &self,
        ctx: &Context,
        ms: &Uid,
        securable: &FullName,
        leaf_group: &str,
    ) -> UcResult<Vec<(String, Privilege)>> {
        let _api = self.api_enter_t("show_grants", ctx, ms);
        let chain = self.lookup_chain(ms, securable, leaf_group)?;
        let target = chain[0].clone();
        let full = self.chain_from_entity(ms, target.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).can_see(&who) {
            return Err(UcError::NotFound(securable.to_string()));
        }
        Ok(target.grants.clone())
    }

    /// Batched authorization API for second-tier services (§4.4): for each
    /// (entity id, privilege) pair, report whether `principal` holds it.
    pub fn authorize_batch(
        &self,
        ms: &Uid,
        principal: &str,
        checks: &[(Uid, Privilege)],
    ) -> UcResult<Vec<bool>> {
        let _api = self.api_enter_p("authorize_batch", principal, Some(ms));
        let who = self.authz_context(ms, principal)?;
        let mut out = Vec::with_capacity(checks.len());
        for (id, privilege) in checks {
            let allowed = match self.entity_by_id(ms, id)? {
                Some(ent) => {
                    let full = self.chain_from_entity(ms, ent)?;
                    Self::authz_of(&full).has_privilege(&who, *privilege)
                }
                None => false,
            };
            out.push(allowed);
        }
        Ok(out)
    }

    /// Batched visibility API: for each entity id, can `principal` see it
    /// at all? Discovery services use this to filter search results.
    pub fn visible_batch(&self, ms: &Uid, principal: &str, ids: &[Uid]) -> UcResult<Vec<bool>> {
        let _api = self.api_enter_p("visible_batch", principal, Some(ms));
        let who = self.authz_context(ms, principal)?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let visible = match self.entity_by_id(ms, id)? {
                Some(ent) => {
                    let full = self.chain_from_entity(ms, ent)?;
                    Self::authz_of(&full).can_see(&who)
                }
                None => false,
            };
            out.push(visible);
        }
        Ok(out)
    }

    /// Fetch an entity by id, subject to visibility.
    pub fn get_entity_by_id(&self, ctx: &Context, ms: &Uid, id: &Uid) -> UcResult<Arc<Entity>> {
        let _api = self.api_enter_t("get_entity_by_id", ctx, ms);
        let ent = self
            .entity_by_id(ms, id)?
            .ok_or_else(|| UcError::NotFound(id.to_string()))?;
        let full = self.chain_from_entity(ms, ent.clone())?;
        let who = self.authz_context(ms, &ctx.principal)?;
        if !Self::authz_of(&full).can_see(&who) {
            return Err(UcError::NotFound(id.to_string()));
        }
        Ok(ent)
    }

    /// Rewrite a securable's grants through the write protocol. Grant
    /// changes are metadata changes: besides the entity's `Update`, the
    /// commit publishes a `GrantChange` for discovery consumers, both at
    /// the committed version.
    fn update_grants(&self, ms: &Uid, id: &Uid, f: impl Fn(&mut Entity)) -> UcResult<()> {
        let now = self.now_ms();
        self.write_ms(ms, |tx, _ver, fx| {
            let ent = rewrite_entity(tx, fx, ms, id, now, |e| {
                f(e);
                Ok(())
            })?;
            fx.events.push((ent.id.clone(), ent.kind, ent.name.clone(), ChangeOp::GrantChange));
            Ok(())
        })
    }

    /// Convenience wrapper for tests and examples: grant on a table.
    pub fn grant_on_table(
        &self,
        ctx: &Context,
        ms: &Uid,
        table: &str,
        grantee: &str,
        privilege: Privilege,
    ) -> UcResult<()> {
        self.grant(ctx, ms, &FullName::parse(table)?, "relation", grantee, privilege)
    }

    /// The standard read-access bundle: USE CATALOG + USE SCHEMA + SELECT.
    pub fn grant_read_path(
        &self,
        ctx: &Context,
        ms: &Uid,
        table: &str,
        grantee: &str,
    ) -> UcResult<()> {
        let name = FullName::parse(table)?;
        let Some(schema_name) = name.schema().filter(|_| name.len() == 3) else {
            return Err(UcError::InvalidArgument("expected catalog.schema.table".into()));
        };
        self.grant(ctx, ms, &FullName::of(&[name.catalog()]), "catalog", grantee, Privilege::UseCatalog)?;
        self.grant(
            ctx,
            ms,
            &FullName::of(&[name.catalog(), schema_name]),
            "schema",
            grantee,
            Privilege::UseSchema,
        )?;
        self.grant(ctx, ms, &name, "relation", grantee, Privilege::Select)
    }
}

/// Arc helper so call sites can use `uc.grant(...)` on `Arc<UnityCatalog>`
/// without noise — inherent methods already work through Deref; this
/// module exists for the free helpers only.
pub type SharedCatalog = Arc<UnityCatalog>;
