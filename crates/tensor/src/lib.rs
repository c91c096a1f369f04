//! # bootleg-tensor
//!
//! A small, dependency-light dense tensor library with reverse-mode automatic
//! differentiation, built as the numerical substrate for the Bootleg NED
//! reproduction (CIDR 2021).
//!
//! Design:
//!
//! * [`Tensor`] is a plain value type: a contiguous row-major `Vec<f32>` plus a
//!   shape. It has no gradient machinery of its own.
//! * [`Graph`] is a define-by-run autograd tape. Every operation appends a node
//!   whose parents already exist, so the node index order *is* a topological
//!   order and backward is a single reverse scan.
//! * [`Var`] is a lightweight handle (graph + node id) returned by every op.
//! * Trainable state lives outside the tape in a [`ParamStore`]. Small dense
//!   parameters enter the graph by value; large embedding tables enter only
//!   through [`Graph::gather_rows`], whose backward scatter-adds into the store
//!   and records the touched rows so optimizers can perform row-sparse updates.
//!
//! Gradient correctness for every differentiable op is checked against central
//! finite differences in the test suite (see `gradcheck`).

pub mod checkpoint;
pub mod frozen;
pub mod gradcheck;
pub mod graph;
pub mod ops;
pub mod init;
pub mod kernels;
pub mod param;
pub mod shape;
pub mod tensor;

pub use graph::{Graph, Var};
pub use param::{Param, ParamId, ParamStore};
pub use shape::Shape;
pub use tensor::Tensor;
