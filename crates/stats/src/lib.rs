//! # qdelay-stats
//!
//! Statistical substrate for the `qdelay` workspace — the from-scratch
//! numerical layer behind the Brevik Method Batch Predictor (BMBP) and its
//! log-normal comparator, reproducing Brevik, Nurmi & Wolski, *Predicting
//! Bounds on Queuing Delay in Space-shared Computing Environments* (2006).
//!
//! The crate provides:
//!
//! * [`special`] — log-gamma, the complementary error function and the
//!   regularized incomplete beta function;
//! * [`binomial`] — the binomial CDF behind BMBP's order-statistic index
//!   (§4.1 and the Appendix);
//! * [`normal`], [`noncentral_t`] — the standard normal and noncentral-t
//!   distributions behind the log-normal comparator's K′ (§4.2);
//! * [`tolerance`] — one-sided normal tolerance factors (the "K'
//!   distribution" of Guttman's Table 4.6, computed exactly);
//! * [`autocorr`] — the lag-1 autocorrelation that calibrates the
//!   change-point detector (§4.1, "Nonstationarity");
//! * [`describe`] — descriptive statistics for traces and reports;
//! * [`roots`] — Brent root finding used by quantile inversions.
//!
//! # Example: the 95/95 order-statistic index
//!
//! ```
//! use qdelay_stats::binomial::Binomial;
//!
//! // With n = 100 observations, which order statistic is a 95%-confidence
//! // upper bound on the 0.95 quantile? Smallest k with P[Bin(100,.95) <= k-1] >= .95.
//! let b = Binomial::new(100, 0.95)?;
//! let k = b.quantile(0.95) + 1;
//! assert_eq!(k, 99);
//! # Ok::<(), qdelay_stats::DistributionError>(())
//! ```

pub mod autocorr;
pub mod binomial;
pub mod describe;
pub mod noncentral_t;
pub mod normal;
pub mod roots;
pub mod special;
pub mod tolerance;

/// Error produced by distribution constructors and inference routines.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionError {
    kind: DistributionErrorKind,
    message: String,
}

/// Classification of [`DistributionError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionErrorKind {
    /// A parameter was outside its valid domain.
    InvalidParameter,
    /// The sample was too small or degenerate for the requested inference.
    InsufficientData,
    /// A numerical procedure failed to converge.
    Numerical,
}

impl DistributionError {
    pub(crate) fn invalid_param(message: impl Into<String>) -> Self {
        Self {
            kind: DistributionErrorKind::InvalidParameter,
            message: message.into(),
        }
    }

    pub(crate) fn insufficient_data(message: impl Into<String>) -> Self {
        Self {
            kind: DistributionErrorKind::InsufficientData,
            message: message.into(),
        }
    }

    pub(crate) fn numerical(message: impl Into<String>) -> Self {
        Self {
            kind: DistributionErrorKind::Numerical,
            message: message.into(),
        }
    }

    /// The error classification.
    pub fn kind(&self) -> DistributionErrorKind {
        self.kind
    }
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for DistributionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DistributionError>();
    }

    #[test]
    fn error_display_is_lowercase_message() {
        let e = DistributionError::invalid_param("p must be in (0,1)");
        assert_eq!(e.to_string(), "p must be in (0,1)");
        assert_eq!(e.kind(), DistributionErrorKind::InvalidParameter);
    }
}
