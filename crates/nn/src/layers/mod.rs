//! Concrete layer implementations.

mod activation;
pub(crate) mod conv;
mod dense;
mod flatten;
mod pool;
mod residual;

pub use activation::{Relu, Sigmoid};
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2;
pub use residual::Residual;
