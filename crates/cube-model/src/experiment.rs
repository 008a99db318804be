//! A CUBE experiment: metadata plus severity data.

use crate::error::ModelError;
use crate::metadata::Metadata;
use crate::provenance::Provenance;
use crate::severity::Severity;

/// A valid instance of the CUBE data model.
///
/// An experiment pairs [`Metadata`] (the three dimensions) with a
/// [`Severity`] store defined over exactly that metadata. Both *original*
/// experiments (produced by measurement tools) and *derived* experiments
/// (produced by algebra operators) are values of this one type — that is
/// the closure property that lets a single viewer and a single file
/// format serve both.
#[derive(Clone, Debug, PartialEq)]
pub struct Experiment {
    metadata: Metadata,
    severity: Severity,
    provenance: Provenance,
}

impl Experiment {
    /// Assembles an experiment and validates it.
    pub fn new(
        metadata: Metadata,
        severity: Severity,
        provenance: Provenance,
    ) -> Result<Self, ModelError> {
        let exp = Self {
            metadata,
            severity,
            provenance,
        };
        exp.validate()?;
        Ok(exp)
    }

    /// Assembles an experiment without validating.
    ///
    /// Intended for operators that construct results known to be valid by
    /// construction; tests still call [`Experiment::validate`] on operator
    /// outputs to pin the closure property.
    pub fn new_unchecked(metadata: Metadata, severity: Severity, provenance: Provenance) -> Self {
        Self {
            metadata,
            severity,
            provenance,
        }
    }

    /// The metadata part.
    pub fn metadata(&self) -> &Metadata {
        &self.metadata
    }

    /// The severity store.
    pub fn severity(&self) -> &Severity {
        &self.severity
    }

    /// Mutable access to the severity store (tools accumulate into it).
    pub fn severity_mut(&mut self) -> &mut Severity {
        &mut self.severity
    }

    /// Where this experiment came from.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Replaces the provenance label.
    pub fn set_provenance(&mut self, provenance: Provenance) {
        self.provenance = provenance;
    }

    /// Checks all data-model constraints: those of
    /// [`Metadata::validate`], then shape agreement between severity and
    /// metadata, then absence of NaN severities. Returns the first
    /// violation in the order of the error rules of [`mod@crate::lint`].
    pub fn validate(&self) -> Result<(), ModelError> {
        crate::lint::model_rules(&self.metadata, &self.severity, &mut Err)
    }

    /// Runs every lint rule over this experiment and reports all
    /// findings, warnings included. See [`mod@crate::lint`] for the rule
    /// catalogue; [`validate`](Self::validate) is the yes/no subset.
    pub fn lint(&self) -> crate::lint::Report {
        crate::lint::lint(self)
    }

    /// Structural equality up to floating-point tolerance: identical
    /// metadata and severity values within `tol`. Provenance is ignored —
    /// it is informational only.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.metadata == other.metadata && self.severity.approx_eq(&other.severity, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ExperimentBuilder;
    use crate::metric::Unit;
    use crate::program::RegionKind;

    fn build_one() -> Experiment {
        let mut b = ExperimentBuilder::new("t");
        let time = b.def_metric("time", Unit::Seconds, "", None);
        let md = b.def_module("m", "/m");
        let r = b.def_region("main", md, RegionKind::Function, 1, 2);
        let cs = b.def_call_site("m", 1, r);
        let root = b.def_call_node(cs, None);
        let mach = b.def_machine("mach");
        let node = b.def_node("n0", mach);
        let p = b.def_process("p0", 0, node);
        let t = b.def_thread("t0", 0, p);
        b.set_severity(time, root, t, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn valid_experiment_roundtrips_accessors() {
        let e = build_one();
        assert_eq!(e.metadata().num_metrics(), 1);
        assert_eq!(e.severity().shape(), (1, 1, 1));
        assert!(!e.provenance().is_derived());
        e.validate().unwrap();
    }

    #[test]
    fn shape_mismatch_detected() {
        let e = build_one();
        let bad = Experiment::new_unchecked(
            e.metadata().clone(),
            Severity::zeros(2, 1, 1),
            Provenance::default(),
        );
        assert!(matches!(
            bad.validate(),
            Err(ModelError::SeverityShapeMismatch { .. })
        ));
    }

    #[test]
    fn nan_detected() {
        let mut e = build_one();
        e.severity_mut().values_mut()[0] = f64::NAN;
        assert!(matches!(e.validate(), Err(ModelError::NanSeverity { .. })));
    }

    #[test]
    fn no_threads_detected() {
        let md = Metadata::new();
        let e = Experiment::new_unchecked(md, Severity::zeros(0, 0, 0), Provenance::default());
        assert!(matches!(e.validate(), Err(ModelError::NoThreads)));
    }

    #[test]
    fn approx_eq_ignores_provenance() {
        let a = build_one();
        let mut b = build_one();
        b.set_provenance(Provenance::derived("mean", vec!["x".into()]));
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn approx_eq_detects_value_changes() {
        let a = build_one();
        let mut b = build_one();
        b.severity_mut().values_mut()[0] += 0.5;
        assert!(!a.approx_eq(&b, 1e-9));
        assert!(a.approx_eq(&b, 1.0));
    }
}
