//! Errors of the bounded downgrade.

use anosy_ifc::IfcError;
use anosy_solver::SolverError;
use anosy_synth::{ApproxKind, SynthError};
use std::fmt;

/// Errors raised by [`crate::AnosySession`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum AnosyError {
    /// `downgrade` was asked to run a query that was never registered (the paper's
    /// "Can't downgrade" error): approximations are synthesized ahead of time, so an unknown
    /// query has no posterior function.
    UnknownQuery {
        /// The requested query name.
        name: String,
    },
    /// Performing a boolean query would violate the quantitative policy on at least one of the
    /// two possible posteriors, so the query was **not** executed.
    PolicyViolation {
        /// The query that was refused.
        query: String,
        /// The name of the policy that refused it.
        policy: String,
        /// Size of the posterior for the `true` answer.
        posterior_true_size: u128,
        /// Size of the posterior for the `false` answer.
        posterior_false_size: u128,
    },
    /// Performing a query of more than two outputs would violate the quantitative policy on the
    /// posterior of at least one output, so the query was **not** executed.
    OutputViolation {
        /// The query that was refused.
        query: String,
        /// The name of the policy that refused it.
        policy: String,
        /// The first output, in output order, whose posterior violates the policy.
        output: usize,
        /// Size of that output's posterior.
        posterior_size: u128,
    },
    /// The query's ind. sets approximate in a direction the policy cannot decide on soundly
    /// (see [`crate::Policy::sound_for`]), so the downgrade was refused before any posterior
    /// was computed and the query was **not** executed.
    UnsoundApproximation {
        /// The approximation direction of the refused query's ind. sets.
        kind: ApproxKind,
    },
    /// The secret lies outside the declared secret space, so no sound knowledge tracking is
    /// possible for it.
    SecretOutsideLayout,
    /// A registration-time failure: synthesis could not produce an approximation.
    Synthesis(SynthError),
    /// A registration-time failure: the synthesized approximation did not verify. This indicates
    /// a bug in the synthesizer (the paper's analogue is a Liquid Haskell rejection) and is
    /// surfaced rather than silently accepted.
    VerificationFailed {
        /// The query whose approximation failed to verify.
        query: String,
        /// Rendered verification report.
        report: String,
    },
    /// A cache-only registration ([`crate::AnosySession::register_cached`]) found no synthesized
    /// entry for the query: the deployment must synthesize (or warm-start) it first.
    NotSynthesized {
        /// The query whose synthesis is missing.
        name: String,
    },
    /// The underlying solver failed while verifying a registration.
    Solver(SolverError),
    /// The underlying IFC substrate rejected an operation.
    Ifc(IfcError),
}

/// Why [`crate::AnosySession::decide_batch`] refused a downgrade. It is the refusal half of
/// [`AnosyError`] without the query and policy names, so building one allocates nothing;
/// [`Refusal::into_error`] spells it out as the matching error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The secret lies outside the declared secret space ([`AnosyError::SecretOutsideLayout`]).
    OutsideLayout,
    /// The policy cannot decide soundly on ind. sets of this direction
    /// ([`AnosyError::UnsoundApproximation`]).
    Unsound(ApproxKind),
    /// A posterior of a boolean query violates the policy ([`AnosyError::PolicyViolation`]).
    Policy {
        /// Size of the posterior for the `true` answer.
        true_size: u128,
        /// Size of the posterior for the `false` answer.
        false_size: u128,
    },
    /// A posterior of a query of more than two outputs violates the policy
    /// ([`AnosyError::OutputViolation`]).
    OutputPolicy {
        /// The first output, in output order, whose posterior violates the policy.
        output: usize,
        /// Size of that output's posterior.
        size: u128,
    },
}

impl Refusal {
    /// The [`AnosyError`] this refusal of a downgrade through `query` spells out as. `policy`
    /// names the refusing policy; only the two policy refusals ask for the name.
    pub fn into_error(self, query: &str, policy: impl FnOnce() -> String) -> AnosyError {
        match self {
            Refusal::OutsideLayout => AnosyError::SecretOutsideLayout,
            Refusal::Unsound(kind) => AnosyError::UnsoundApproximation { kind },
            Refusal::Policy { true_size, false_size } => AnosyError::PolicyViolation {
                query: query.to_string(),
                policy: policy(),
                posterior_true_size: true_size,
                posterior_false_size: false_size,
            },
            Refusal::OutputPolicy { output, size } => AnosyError::OutputViolation {
                query: query.to_string(),
                policy: policy(),
                output,
                posterior_size: size,
            },
        }
    }
}

impl fmt::Display for AnosyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnosyError::UnknownQuery { name } => write!(f, "can't downgrade {name}: unknown query"),
            AnosyError::PolicyViolation {
                query,
                policy,
                posterior_true_size,
                posterior_false_size,
            } => write!(
                f,
                "policy violation: {policy} refuses {query} (posterior sizes: true {posterior_true_size}, false {posterior_false_size})"
            ),
            AnosyError::OutputViolation { query, policy, output, posterior_size } => write!(
                f,
                "policy violation: {policy} refuses {query} (posterior size of output {output}: {posterior_size})"
            ),
            AnosyError::UnsoundApproximation { kind } => {
                write!(f, "unsound approximation: the policy cannot decide on {kind}-approximate ind. sets")
            }
            AnosyError::SecretOutsideLayout => {
                write!(f, "the secret lies outside the declared secret space")
            }
            AnosyError::Synthesis(e) => write!(f, "synthesis failed: {e}"),
            AnosyError::VerificationFailed { query, report } => {
                write!(f, "synthesized approximation for {query} failed verification:\n{report}")
            }
            AnosyError::NotSynthesized { name } => {
                write!(f, "can't register {name}: no cached synthesis for the query")
            }
            AnosyError::Solver(e) => write!(f, "solver failure: {e}"),
            AnosyError::Ifc(e) => write!(f, "IFC violation: {e}"),
        }
    }
}

impl std::error::Error for AnosyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnosyError::Synthesis(e) => Some(e),
            AnosyError::Solver(e) => Some(e),
            AnosyError::Ifc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SynthError> for AnosyError {
    fn from(e: SynthError) -> Self {
        AnosyError::Synthesis(e)
    }
}

impl From<SolverError> for AnosyError {
    fn from(e: SolverError) -> Self {
        AnosyError::Solver(e)
    }
}

impl From<IfcError> for AnosyError {
    fn from(e: IfcError) -> Self {
        AnosyError::Ifc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_matches_the_papers_messages() {
        let unknown = AnosyError::UnknownQuery { name: "nearby".into() };
        assert!(unknown.to_string().contains("can't downgrade nearby"));
        let violation = AnosyError::PolicyViolation {
            query: "nearby (400,200)".into(),
            policy: "min-size:100".into(),
            posterior_true_size: 0,
            posterior_false_size: 2537,
        };
        assert!(violation.to_string().contains("policy violation"));
        assert!(violation.to_string().contains("true 0"));
    }

    #[test]
    fn conversions_set_sources() {
        let e: AnosyError = SolverError::EmptySpace.into();
        assert!(e.source().is_some());
        let e: AnosyError = IfcError::FlowViolation { from: "a".into(), to: "b".into() }.into();
        assert!(e.source().is_some());
        assert!(AnosyError::SecretOutsideLayout.source().is_none());
    }
}
