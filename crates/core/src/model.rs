//! The one abstraction over the three models: each is an ordered list of
//! [`Sequential`] networks (the joint model: the CNN's, then the
//! classifier's). Checkpoint/bundle capture and restore and the
//! data-parallel [`Replica`] view are written once on top of that list.

use snia_nn::serialize;
use snia_nn::{Param, Sequential, StateError};

use crate::parallel::Replica;
use crate::resilience::{CheckpointError, ModelState};

/// A model made of an ordered list of [`Sequential`] networks.
pub trait Model: Send {
    /// Builds a structurally identical model (same networks, layers and
    /// parameter shapes); parameter values need not match.
    fn replicate(&self) -> Self
    where
        Self: Sized;

    /// The model's networks in state-layout order.
    fn networks(&self) -> Vec<&Sequential>;

    /// Mutable view of [`Model::networks`], in the same order.
    fn networks_mut(&mut self) -> Vec<&mut Sequential>;

    /// Captures weights and non-learnable buffers: all networks' tensors
    /// in network order, then all networks' layer states in network order.
    fn capture(&self) -> ModelState {
        let nets = self.networks();
        let params: Vec<&Param> = nets.iter().flat_map(|n| n.params()).collect();
        ModelState {
            weights: serialize::snapshot_params(&params),
            extra: nets.iter().flat_map(|n| n.extra_states()).collect(),
        }
    }

    /// Restores a state captured by [`Model::capture`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Model`] when the tensors do not fit (count
    /// or shape; nothing is overwritten then) and [`CheckpointError::State`]
    /// when the layer states do not (the weights are already restored then).
    fn restore(&mut self, state: &ModelState) -> Result<(), CheckpointError> {
        let mut nets = self.networks_mut();
        let mut params: Vec<&mut Param> = nets.iter_mut().flat_map(|n| n.params_mut()).collect();
        serialize::restore_params(&mut params, &state.weights)?;
        let layers: usize = nets.iter().map(|n| n.len()).sum();
        if state.extra.len() != layers {
            return Err(StateError::LayerCount {
                expected: layers,
                found: state.extra.len(),
            }
            .into());
        }
        let mut extra = state.extra.as_slice();
        for net in nets {
            let (own, rest) = extra.split_at(net.len());
            net.load_extra_states(own)?;
            extra = rest;
        }
        Ok(())
    }
}

/// A bit-identical copy of `model`: a [`Model::replicate`] with the
/// original's captured state restored into it.
pub fn exact_copy<M: Model>(model: &M) -> M {
    let mut copy = Model::replicate(model);
    copy.restore(&model.capture())
        .expect("a replica shares the architecture");
    copy
}

impl<M: Model> Replica for M {
    fn replicate(&self) -> Self {
        Model::replicate(self)
    }

    fn params(&self) -> Vec<&Param> {
        self.networks()
            .into_iter()
            .flat_map(|n| n.params())
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.networks_mut()
            .into_iter()
            .flat_map(|n| n.params_mut())
            .collect()
    }

    fn zero_grad(&mut self) {
        for net in self.networks_mut() {
            net.zero_grad();
        }
    }
}
