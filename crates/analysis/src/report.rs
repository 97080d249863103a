//! The analyzer's output: severity-ranked [`Diagnostic`]s collected into
//! an [`AnalysisReport`] with `Display` and [`Json`] renderings (the same
//! value type as the engine's `MetricsSnapshot::to_json`, so one collector
//! can ingest both).

use ged_graph::json::Json;
use std::fmt;

/// How bad a finding is. Ordered: `Note < Warning < Error`, so reports
/// can be ranked and thresholds compared with `>=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational — worth knowing, never wrong by itself (e.g. a
    /// disconnected pattern that is the intentional shape of a GKey).
    Note,
    /// The Σ is almost certainly not what its author meant: a rule that
    /// can never fire, a duplicate, an implied rule burning matcher time.
    Warning,
    /// The Σ is broken: deploying it would be unsound or meaningless
    /// (an unsatisfiable Σ).
    Error,
}

impl Severity {
    /// Lower-case label used by `Display` and the JSON rendering.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which lint produced a diagnostic — the catalogue of DESIGN.md §7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// The premises can never hold jointly (`x.a = c ∧ x.a = c'`, or a
    /// family-specific infeasibility such as `x.a < 5 ∧ x.a > 10`): the
    /// rule can never fire.
    ContradictoryPremises,
    /// Some conclusion option is a syntactic subset of the premises: the
    /// rule can never produce a violation.
    EntailedConclusion,
    /// Chase-proved dead: `∅ ⊨ φ`, i.e. every graph satisfies the rule.
    DeadRule,
    /// Another rule with identical pattern, premises, and conclusions.
    DuplicateRule,
    /// A disjunct repeated verbatim inside one disjunctive conclusion.
    DuplicateDisjunct,
    /// A disjunct whose conjunction extends another disjunct of the same
    /// rule: whenever it holds the smaller one holds too, so it never
    /// decides the disjunction.
    ShadowedDisjunct,
    /// The pattern has more than one connected component — match
    /// enumeration is a cartesian product of the components.
    DisconnectedPattern,
    /// A wildcard-labelled variable: its candidate domain is every node.
    WildcardLabel,
    /// The chase fragment of Σ is unsatisfiable (`Sat(Σ)` gate).
    UnsatisfiableSigma,
    /// The rule is implied by the rest of the chase fragment and prunable
    /// without changing which graphs satisfy Σ.
    ImpliedRule,
}

impl LintKind {
    /// Kebab-case slug used by `Display` and the JSON rendering.
    pub fn slug(self) -> &'static str {
        match self {
            LintKind::ContradictoryPremises => "contradictory-premises",
            LintKind::EntailedConclusion => "entailed-conclusion",
            LintKind::DeadRule => "dead-rule",
            LintKind::DuplicateRule => "duplicate-rule",
            LintKind::DuplicateDisjunct => "duplicate-disjunct",
            LintKind::ShadowedDisjunct => "shadowed-disjunct",
            LintKind::DisconnectedPattern => "disconnected-pattern",
            LintKind::WildcardLabel => "wildcard-label",
            LintKind::UnsatisfiableSigma => "unsat-sigma",
            LintKind::ImpliedRule => "implied-rule",
        }
    }
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One finding: a lint, where it fired, and why.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Severity rank.
    pub severity: Severity,
    /// The lint that fired.
    pub kind: LintKind,
    /// Name of the offending rule; `None` for Σ-level findings
    /// ([`LintKind::UnsatisfiableSigma`]).
    pub rule: Option<String>,
    /// Index of the offending rule in the analyzed Σ, when rule-level.
    pub index: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A rule-level diagnostic.
    pub(crate) fn rule(
        severity: Severity,
        kind: LintKind,
        index: usize,
        name: &str,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            kind,
            rule: Some(name.to_string()),
            index: Some(index),
            message: message.into(),
        }
    }

    /// A Σ-level diagnostic.
    pub(crate) fn sigma(
        severity: Severity,
        kind: LintKind,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            kind,
            rule: None,
            index: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:7} [{}] ", self.severity.label(), self.kind.slug())?;
        match (&self.rule, self.index) {
            (Some(name), Some(i)) => write!(f, "{name}(#{i}): ")?,
            (Some(name), None) => write!(f, "{name}: ")?,
            _ => f.write_str("Σ: ")?,
        }
        f.write_str(&self.message)
    }
}

/// A rule the analyzer proved safe to drop, and why: pruning it changes
/// neither which graphs satisfy Σ nor the violation sets of the kept
/// rules (soundness argument in DESIGN.md §7).
#[derive(Debug, Clone)]
pub struct Pruned {
    /// Index in the analyzed Σ.
    pub index: usize,
    /// Rule name.
    pub name: String,
    /// The lint that justified pruning ([`LintKind::ImpliedRule`],
    /// [`LintKind::DeadRule`], [`LintKind::ContradictoryPremises`],
    /// [`LintKind::EntailedConclusion`], or [`LintKind::DuplicateRule`]).
    pub why: LintKind,
}

/// Everything the analyzer found, severity-ranked. Produced by
/// [`analyze`](crate::analyze); render with `Display` for humans or
/// [`to_json`](AnalysisReport::to_json) for collectors.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Rules analyzed.
    pub rules: usize,
    /// Rules that embed in the chase fragment
    /// (`Rule::as_chase_ged`) and therefore went through the
    /// `Sat(Σ)` gate and implication-based minimization.
    pub chase_eligible: usize,
    /// Findings, most severe first (ties in Σ order).
    pub diagnostics: Vec<Diagnostic>,
    /// Rules proved safe to drop, in Σ order.
    pub prunable: Vec<Pruned>,
}

impl AnalysisReport {
    /// Any [`Severity::Error`] findings? An erroring Σ is rejected by
    /// `IncrementalValidator::with_analysis`.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The findings at exactly `severity`.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Is the rule at Σ index `index` in the prunable set?
    pub fn is_prunable(&self, index: usize) -> bool {
        self.prunable.iter().any(|p| p.index == index)
    }

    /// The report as a [`Json`] document for collectors (stable key
    /// order; `Display` on the result is the one-line text).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rules", self.rules.into()),
            ("chase_eligible", self.chase_eligible.into()),
            ("errors", self.count(Severity::Error).into()),
            ("warnings", self.count(Severity::Warning).into()),
            ("notes", self.count(Severity::Note).into()),
            (
                "diagnostics",
                Json::Arr(
                    self.diagnostics
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("severity", d.severity.label().into()),
                                ("kind", d.kind.slug().into()),
                                ("rule", d.rule.as_deref().map_or(Json::Null, Json::from)),
                                ("index", d.index.map_or(Json::Null, Json::from)),
                                ("message", d.message.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "prunable",
                Json::Arr(
                    self.prunable
                        .iter()
                        .map(|p| {
                            Json::obj(vec![
                                ("index", p.index.into()),
                                ("rule", p.name.as_str().into()),
                                ("why", p.why.slug().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "analysis: {} rule(s), {} chase-eligible, {} prunable; \
             {} error(s), {} warning(s), {} note(s)",
            self.rules,
            self.chase_eligible,
            self.prunable.len(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note)
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}
