#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Numerical substrate for CT-Bus.
//!
//! The paper's efficiency story (§5) rests on estimating the *natural
//! connectivity* `λ(G) = ln(tr(e^A)/n)` of a transit network's adjacency
//! matrix `A` without ever forming `e^A`. This crate implements, from
//! scratch, everything that pipeline needs:
//!
//! * sparse symmetric matrices in CSR form ([`sparse::CsrMatrix`]) and small
//!   dense symmetric matrices ([`dense::DenseMatrix`]);
//! * exact full eigendecomposition — Householder tridiagonalization
//!   ([`householder`]) followed by an implicit-shift QL iteration
//!   ([`tridiag`]), optionally with the eigenvectors of the largest
//!   eigenvalues;
//! * the Lanczos method for `e^A v` and stochastic Lanczos quadrature (SLQ)
//!   for `v^T e^A v` ([`lanczos`]);
//! * Hutchinson's stochastic trace estimator with frozen Gaussian probes
//!   (§5.1), reused across networks so that connectivity *increments* are
//!   estimated with common random numbers ([`trace`]);
//! * top-k eigenpairs via a randomized block Krylov method ([`topk`],
//!   paper ref \[44\]) feeding the Lemma 3/4 connectivity bounds;
//! * natural connectivity itself, exact ([`connectivity`]) and estimated
//!   ([`ConnectivityEstimator`]).

pub mod chebyshev;
pub mod connectivity;
pub mod dense;
pub mod eig;
pub mod error;
pub mod householder;
pub mod lanczos;
pub mod laplacian;
pub mod matvec;
pub mod rng;
pub mod sparse;
pub mod topk;
pub mod trace;
pub mod tridiag;
pub mod util;
pub mod vector;

pub use chebyshev::{bessel_i, chebyshev_expv};
pub use connectivity::{natural_connectivity_exact, natural_connectivity_from_eigs};
pub use dense::DenseMatrix;
pub use eig::{full_symmetric_eigenvalues, sparse_symmetric_eigenvalues, top_symmetric_eigenpairs};
pub use error::LinalgError;
pub use lanczos::{
    lanczos_expv, lanczos_expv_in, lanczos_tridiagonalize, lanczos_tridiagonalize_in,
    slq_trace_batch_in, LanczosDecomposition, LanczosWorkspace,
};
pub use laplacian::{algebraic_connectivity, algebraic_connectivity_exact, laplacian_dense};
pub use matvec::{EdgeOverlay, MatVec};
pub use rng::gaussian_vector;
pub use sparse::CsrMatrix;
pub use topk::{
    block_krylov_head, block_krylov_topk, block_krylov_topk_warm, spectral_norm, SpectrumHead,
};
pub use trace::{ConnectivityEstimator, TraceParams};
pub use util::logsumexp;
