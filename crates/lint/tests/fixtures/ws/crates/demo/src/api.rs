//! Instrumentation fixtures: entry points on `Service` (the fixture's
//! configured impl_type).

impl Service {
    pub fn get_table(&self, name: &str) -> Result<Table, Error> {
        let _api = self.api_enter("get_table"); // instrumented: no diagnostic
        self.fetch(name)
    }

    pub fn get_table_labeled(&self, ctx: &Ctx, ms: &Uid) -> Result<Table, Error> {
        let _api = self.api_enter_t("get_table", ctx, ms); // tenant variant counts as instrumented: no diagnostic
        self.fetch("t")
    }

    pub fn delegated(&self) -> u32 {
        self.inner_entry() // same-file delegation: no diagnostic
    }

    fn inner_entry(&self) -> u32 {
        let _api = self.api_enter("get_table");
        7
    }

    pub fn uninstrumented(&self) -> u32 {
        19 // fn at line 24: pub entry point without api_enter
    }

    pub fn ghost(&self) {
        let _api = self.api_enter("ghost_op"); // op not in KNOWN_OPS (and, being unknown, must audit — nothing here does)
    }

    pub fn create_table(&self, name: &str) -> Result<Table, Error> {
        let _api = self.api_enter("create_table");
        self.record_audit("alice", "getTable", name); // line 34: action belongs to get_table, not create_table
        self.record_audit("alice", "madeUp", name); // line 35: action in no op's allowed set
        self.fetch(name)
    }

    pub fn deny_without_audit(&self, name: &str) -> Result<Table, Error> {
        let _api = self.api_enter("get_table"); // PermissionDenied below, no Deny audit
        if name.is_empty() {
            return Err(Error::PermissionDenied("no".into()));
        }
        self.fetch(name)
    }

    pub fn silent_create(&self) -> Result<Table, Error> {
        let _api = self.api_enter("create_table"); // op declares audit actions but nothing below records one
        Ok(Table)
    }

    fn fetch(&self, name: &str) -> Result<Table, Error> {
        self.record_audit("alice", "getTable", name); // entries that delegate here reach the audit sink
        Err(Error::NotFound)
    }

    fn audit_shed(&self, name: &str) {
        self.record_audit("alice", "requestShed", name); // keeps the serve_admit row live
    }

    fn record_audit(&self, _principal: &str, _action: &str, _detail: &str) {
        // The fixture's audit sink: reachability to this def satisfies
        // the instrument rule's audit-record check.
    }
}
