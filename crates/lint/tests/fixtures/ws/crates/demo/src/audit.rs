//! Fixture audit module: the KNOWN_OPS table the instrumentation rule
//! parses from source. Four ops, five actions total.

pub const KNOWN_OPS: &[(&str, &[&str])] = &[
    ("create_table", &["createTable", "useExternalPath"]),
    ("get_table", &["getTable"]),
    ("retired_op", &["retiredAction"]), // line 7: stale row, nothing opens or records it
    ("serve_admit", &["requestShed"]), // no span opens it, but `audit_shed` records its action: live
];
