//! Switches controlling metadata integration.
//!
//! The paper: "The focus of CUBE is to provide automatic merging
//! mechanisms that follow simple rules and create predictable results
//! without requiring manual intervention. As the default behavior might
//! not satisfy the user in all possible situations, switches have been
//! included to change the default according to a user's needs."

/// Equality relation used when matching call-tree nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CallSiteEq {
    /// Two call sites are equal when their callee regions are equal
    /// (region name + module name). This is the default because call-site
    /// attributes such as line numbers can change across code versions
    /// while still referring to the "same" call site.
    #[default]
    CalleeOnly,
    /// Two call sites are equal when callee, file, *and* line agree.
    /// Useful when the same callee is invoked from several sites that
    /// must stay distinct.
    Strict,
}

/// How the machine/node levels of the system dimension are integrated.
///
/// Processes and threads are always matched by their application-level
/// identifiers (global MPI rank, thread number). The *upper* levels are
/// not matched; they are either copied from the first operand or
/// collapsed to a single machine with a single node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SystemMergeMode {
    /// Copy the first operand's machine/node hierarchy when the
    /// partitioning of processes into nodes is compatible among the
    /// operands; collapse otherwise. This is the paper's default.
    #[default]
    Auto,
    /// Always collapse to a single machine and a single node.
    Collapse,
    /// Always copy the first operand's hierarchy. Processes that only
    /// exist in later operands are placed on their operand's node index
    /// when that index exists in the copied hierarchy, and on the last
    /// node otherwise.
    CopyFirst,
}

/// All integration switches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeOptions {
    /// Call-site equality relation.
    pub call_site_eq: CallSiteEq,
    /// Machine/node integration mode.
    pub system_mode: SystemMergeMode,
}

impl MergeOptions {
    /// The paper's defaults: callee-only call-site equality, automatic
    /// copy-or-collapse system integration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style call-site equality override.
    pub fn with_call_site_eq(mut self, eq: CallSiteEq) -> Self {
        self.call_site_eq = eq;
        self
    }

    /// Builder-style system-mode override.
    pub fn with_system_mode(mut self, mode: SystemMergeMode) -> Self {
        self.system_mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = MergeOptions::new();
        assert_eq!(o.call_site_eq, CallSiteEq::CalleeOnly);
        assert_eq!(o.system_mode, SystemMergeMode::Auto);
    }

    #[test]
    fn builder_overrides() {
        let o = MergeOptions::new()
            .with_call_site_eq(CallSiteEq::Strict)
            .with_system_mode(SystemMergeMode::Collapse);
        assert_eq!(o.call_site_eq, CallSiteEq::Strict);
        assert_eq!(o.system_mode, SystemMergeMode::Collapse);
    }
}
