//! # pim-workload — statistical workload models for the PIM tradeoff studies
//!
//! The paper characterizes workloads statistically: a total operation count, an
//! instruction mix, a temporal-locality split between host and PIM work, a uniform
//! partition of the PIM work into per-node threads, and (for the parcel study) a
//! remote-access fraction. This crate provides those descriptions plus synthetic
//! operation/address streams so the same parameters can be either *assumed* (as in the
//! paper) or *measured* against the structural memory models in `pim-mem`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod kernels;
pub mod locality;
pub mod mix;
pub mod synthetic;
pub mod threads;

pub use kernels::{Kernel, KernelProfile};
pub use locality::{ReuseProfile, WorkPartition};
pub use mix::{InstructionMix, OpKind};
pub use synthetic::{AddressPattern, Operation, OperationStream};
pub use threads::{ThreadBalance, ThreadPartition};
