//! Sampling policies for impressions.
//!
//! An impression "gathers data according to a sampling strategy" (§3.1). The
//! policy enumerates the strategies the paper describes — uniform (Figure 2),
//! Last-Seen (Figure 3) and workload-biased (Figure 6).

use serde::{Deserialize, Serialize};

/// How an impression selects the tuples it retains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum SamplingPolicy {
    /// Uniform reservoir sampling (Algorithm R, Figure 2).
    #[default]
    Uniform,
    /// Recency-biased Last-Seen sampling (Figure 3).
    LastSeen {
        /// Fraction `k/n` of the reservoir reserved for fresh tuples.
        fresh_fraction: f64,
        /// Expected tuples per ingest window (`D`).
        daily_ingest: f64,
    },
    /// KDE-biased sampling steered by the workload's predicate set
    /// (Figure 6). The listed attributes are the "interesting attributes"
    /// whose requested values are logged.
    Biased {
        /// Attributes whose workload density steers the bias.
        attributes: Vec<String>,
    },
}

impl SamplingPolicy {
    /// A biased policy over the given attributes.
    pub fn biased<I, S>(attributes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SamplingPolicy::Biased {
            attributes: attributes.into_iter().map(Into::into).collect(),
        }
    }

    /// A Last-Seen policy with the given parameters.
    pub fn last_seen(fresh_fraction: f64, daily_ingest: f64) -> Self {
        SamplingPolicy::LastSeen {
            fresh_fraction,
            daily_ingest,
        }
    }

    /// Whether the policy produces equal-probability samples, i.e. whether
    /// classical SRS estimators apply.
    pub fn is_uniform(&self) -> bool {
        matches!(self, SamplingPolicy::Uniform)
    }

    /// Whether the policy reacts to the observed workload (and therefore
    /// needs re-adaptation when the focus shifts).
    pub fn is_workload_driven(&self) -> bool {
        matches!(self, SamplingPolicy::Biased { .. })
    }

    /// Short name used in reports and benchmark output.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingPolicy::Uniform => "uniform",
            SamplingPolicy::LastSeen { .. } => "last-seen",
            SamplingPolicy::Biased { .. } => "biased",
        }
    }

    /// Validate the policy parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            SamplingPolicy::Uniform => Ok(()),
            SamplingPolicy::LastSeen {
                fresh_fraction,
                daily_ingest,
            } => {
                if !(*fresh_fraction > 0.0 && *fresh_fraction <= 1.0) {
                    Err("fresh_fraction must lie in (0, 1]".to_owned())
                } else if !(*daily_ingest > 0.0) {
                    Err("daily_ingest must be positive".to_owned())
                } else {
                    Ok(())
                }
            }
            SamplingPolicy::Biased { attributes } => {
                if attributes.is_empty() {
                    Err("biased policy needs at least one steering attribute".to_owned())
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_names() {
        assert_eq!(SamplingPolicy::Uniform.name(), "uniform");
        assert_eq!(SamplingPolicy::last_seen(0.5, 1000.0).name(), "last-seen");
        assert_eq!(SamplingPolicy::biased(["ra", "dec"]).name(), "biased");
        assert_eq!(SamplingPolicy::default(), SamplingPolicy::Uniform);
    }

    #[test]
    fn classification_helpers() {
        assert!(SamplingPolicy::Uniform.is_uniform());
        assert!(!SamplingPolicy::biased(["ra"]).is_uniform());
        assert!(SamplingPolicy::biased(["ra"]).is_workload_driven());
        assert!(!SamplingPolicy::last_seen(1.0, 10.0).is_workload_driven());
    }

    #[test]
    fn validation() {
        assert!(SamplingPolicy::Uniform.validate().is_ok());
        assert!(SamplingPolicy::last_seen(0.5, 100.0).validate().is_ok());
        assert!(SamplingPolicy::last_seen(0.0, 100.0).validate().is_err());
        assert!(SamplingPolicy::last_seen(1.5, 100.0).validate().is_err());
        assert!(SamplingPolicy::last_seen(0.5, 0.0).validate().is_err());
        assert!(SamplingPolicy::biased(["ra"]).validate().is_ok());
        assert!(SamplingPolicy::biased(Vec::<String>::new())
            .validate()
            .is_err());
    }

    #[test]
    fn biased_records_attributes() {
        match SamplingPolicy::biased(["ra", "dec"]) {
            SamplingPolicy::Biased { attributes } => {
                assert_eq!(attributes, vec!["ra".to_owned(), "dec".to_owned()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
