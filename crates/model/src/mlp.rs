//! Multi-layer perceptron with the three gradient-derivation styles of
//! the paper's DP-SGD variants.
//!
//! The crucial structural fact (paper §2.5, Denison et al.): activation
//! gradients are *already per-example* — each row of a `B × d` gradient
//! matrix belongs to one example. Only the weight-gradient GEMM
//! (`aᵀ·δ`) sums over examples. Therefore:
//!
//! * plain SGD / the reweighted pass run one weight-grad GEMM,
//! * DP-SGD(B) materializes `B` outer products (`a_i δ_iᵀ`),
//! * DP-SGD(F) reads per-example norms straight off the activations and
//!   activation gradients: `‖grad_W L_i‖² = ‖a_i‖²·‖δ_i‖²` per linear
//!   layer (the *ghost norm*), never materializing per-example grads.

use lazydp_rng::{par_apply_dense_noise, Prng, RowNoise};
use lazydp_tensor::ops::add_bias;
use lazydp_tensor::{Activation, InitKind, Matrix, ScratchArena};

/// One linear layer `y = act(x·W + b)` with `W: in × out`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearLayer {
    /// Weight matrix, `in_dim × out_dim`.
    pub weight: Matrix,
    /// Bias, length `out_dim`.
    pub bias: Vec<f32>,
    /// Activation applied to the affine output.
    pub activation: Activation,
}

impl LinearLayer {
    /// Creates a Xavier-initialized layer.
    #[must_use]
    pub fn new<R: Prng>(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            weight: InitKind::XavierUniform.matrix(rng, in_dim, out_dim),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Input width.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output width.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Parameter count (weights + bias).
    #[must_use]
    pub fn params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// Gradient of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrad {
    /// `∂L/∂W`, same shape as the weight.
    pub dw: Matrix,
    /// `∂L/∂b`, same length as the bias.
    pub db: Vec<f32>,
}

impl LayerGrad {
    /// Squared L2 norm of the layer gradient.
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        self.dw.frob_norm_sq() + lazydp_tensor::vecops::norm_sq(&self.db)
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        self.dw.axpy(alpha, &other.dw);
        for (a, &b) in self.db.iter_mut().zip(other.db.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, alpha: f32) {
        self.dw.scale(alpha);
        for b in &mut self.db {
            *b *= alpha;
        }
    }
}

/// Gradients of a whole MLP (one [`LayerGrad`] per layer).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MlpGrads {
    /// Per-layer gradients, front to back.
    pub layers: Vec<LayerGrad>,
}

impl MlpGrads {
    /// Zero gradients shaped like `mlp`.
    #[must_use]
    pub fn zeros_like(mlp: &Mlp) -> Self {
        Self {
            layers: mlp
                .layers
                .iter()
                .map(|l| LayerGrad {
                    dw: Matrix::zeros(l.in_dim(), l.out_dim()),
                    db: vec![0.0; l.out_dim()],
                })
                .collect(),
        }
    }

    /// Total squared L2 norm.
    #[must_use]
    pub fn norm_sq(&self) -> f64 {
        self.layers.iter().map(LayerGrad::norm_sq).sum()
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "layer count mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
            a.axpy(alpha, b);
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, alpha: f32) {
        for l in &mut self.layers {
            l.scale(alpha);
        }
    }

    /// Overwrites every gradient value with exact `+0.0` (the
    /// empty-batch reset of a reused gradient buffer; `scale(0.0)`
    /// would keep `-0.0`/NaN bits).
    pub fn set_zero(&mut self) {
        for l in &mut self.layers {
            l.dw.as_mut_slice().fill(0.0);
            l.db.fill(0.0);
        }
    }
}

/// Forward cache: the input and every layer's post-activation output.
///
/// Reusable: [`Mlp::forward_into`] reshapes the cached matrices in
/// place, so a cache driven by a trainer allocates only until every
/// activation has reached its steady-state size.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `activations[0]` is the input; `activations[l+1]` is layer `l`'s
    /// output.
    pub activations: Vec<Matrix>,
}

impl MlpCache {
    /// The MLP output (last activation).
    #[must_use]
    pub fn output(&self) -> &Matrix {
        self.activations.last().expect("cache is non-empty")
    }
}

/// A stack of [`LinearLayer`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<LinearLayer>,
}

impl Mlp {
    /// Builds an MLP `in_dim → widths[0] → … → widths.last()` with ReLU
    /// on hidden layers and a linear output layer.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty.
    #[must_use]
    pub fn new<R: Prng>(in_dim: usize, widths: &[usize], rng: &mut R) -> Self {
        assert!(!widths.is_empty(), "MLP needs at least one layer");
        let mut layers = Vec::with_capacity(widths.len());
        let mut prev = in_dim;
        for (i, &w) in widths.iter().enumerate() {
            let act = if i + 1 == widths.len() {
                Activation::Linear
            } else {
                Activation::Relu
            };
            layers.push(LinearLayer::new(prev, w, act, rng));
            prev = w;
        }
        Self { layers }
    }

    /// The layers.
    #[must_use]
    pub fn layers(&self) -> &[LinearLayer] {
        &self.layers
    }

    /// Mutable layer access (used by optimizers).
    pub fn layers_mut(&mut self) -> &mut [LinearLayer] {
        &mut self.layers
    }

    /// Total parameter count.
    #[must_use]
    pub fn params(&self) -> usize {
        self.layers.iter().map(LinearLayer::params).sum()
    }

    /// Forward pass, caching all activations.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the first layer's input width.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> MlpCache {
        let mut cache = MlpCache::default();
        self.forward_into(x, &mut cache);
        cache
    }

    /// [`forward`](Self::forward) into a reusable cache: every
    /// activation matrix is reshaped and overwritten in place, so
    /// steady-state forward passes allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the first layer's input width.
    pub fn forward_into(&self, x: &Matrix, cache: &mut MlpCache) {
        if cache.activations.is_empty() {
            cache.activations.push(Matrix::zeros(0, 0));
        }
        cache.activations[0].copy_from(x);
        self.forward_in_place(cache);
    }

    /// Runs the forward pass over a cache whose `activations[0]` the
    /// caller has already filled with the layer input (the DLRM path
    /// writes the interaction output straight into that slot, skipping a
    /// copy). The remaining activation slots are reshaped in place.
    ///
    /// # Panics
    ///
    /// Panics if the cache has no input activation.
    pub fn forward_in_place(&self, cache: &mut MlpCache) {
        assert!(
            !cache.activations.is_empty(),
            "cache needs its input activation filled"
        );
        cache
            .activations
            .resize_with(self.layers.len() + 1, || Matrix::zeros(0, 0));
        for (l, layer) in self.layers.iter().enumerate() {
            let (done, rest) = cache.activations.split_at_mut(l + 1);
            let z = &mut rest[0];
            done[l].matmul_into(&layer.weight, z);
            add_bias(z, &layer.bias);
            layer.activation.forward_inplace(z);
        }
    }

    /// Standard per-batch backward pass.
    ///
    /// Returns the weight gradients and the gradient with respect to the
    /// MLP input. `grad_out` is `∂L/∂output` (post-activation).
    #[must_use]
    pub fn backward(&self, cache: &MlpCache, grad_out: &Matrix) -> (MlpGrads, Matrix) {
        let mut grads = MlpGrads::default();
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_into(
            cache,
            grad_out,
            &mut grads,
            &mut grad_in,
            &mut ScratchArena::new(),
        );
        (grads, grad_in)
    }

    /// [`backward`](Self::backward) into caller-owned gradients and
    /// input-gradient matrix, with working matrices checked out of
    /// `arena` — the zero-allocation backward of the training hot loop.
    /// `grads` is (re)shaped to match the MLP on first use.
    ///
    /// The activation backward runs in place on a ping-pong pair of
    /// scratch matrices; per-layer arithmetic (and therefore every
    /// output bit) is identical to the allocating path.
    pub fn backward_into(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        grads: &mut MlpGrads,
        grad_in: &mut Matrix,
        arena: &mut ScratchArena,
    ) {
        if grads.layers.len() != self.layers.len() {
            *grads = MlpGrads::zeros_like(self);
        }
        let mut grad = arena.take_matrix(0, 0);
        grad.copy_from(grad_out);
        let mut next = arena.take_matrix(0, 0);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let a_out = &cache.activations[l + 1];
            let a_in = &cache.activations[l];
            layer.activation.backward_inplace(a_out, &mut grad); // grad is now dz
            a_in.t_matmul_into(&grad, &mut grads.layers[l].dw);
            grad.col_sums_into(&mut grads.layers[l].db);
            grad.matmul_t_into(&layer.weight, &mut next);
            std::mem::swap(&mut grad, &mut next);
        }
        std::mem::swap(grad_in, &mut grad);
        arena.put_matrix(grad);
        arena.put_matrix(next);
    }

    /// Ghost-norm backward pass (DP-SGD(F), §2.5): per-example squared
    /// gradient norms without materializing per-example weight grads.
    ///
    /// Returns `(per_example_norm_sq, grad_input)`; the input gradient is
    /// per-example (rows), so callers can keep propagating (e.g. into
    /// embedding ghost norms).
    #[must_use]
    pub fn backward_ghost_norms(&self, cache: &MlpCache, grad_out: &Matrix) -> (Vec<f64>, Matrix) {
        let mut norms = Vec::new();
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_ghost_norms_into(
            cache,
            grad_out,
            &mut norms,
            &mut grad_in,
            &mut ScratchArena::new(),
        );
        (norms, grad_in)
    }

    /// [`backward_ghost_norms`](Self::backward_ghost_norms) into
    /// caller-owned buffers (same arithmetic, no allocation at steady
    /// state).
    pub fn backward_ghost_norms_into(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        norms: &mut Vec<f64>,
        grad_in: &mut Matrix,
        arena: &mut ScratchArena,
    ) {
        let batch = grad_out.rows();
        norms.clear();
        norms.resize(batch, 0.0);
        let mut grad = arena.take_matrix(0, 0);
        grad.copy_from(grad_out);
        let mut next = arena.take_matrix(0, 0);
        let mut a_norms = arena.take_f64(0);
        let mut d_norms = arena.take_f64(0);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let a_out = &cache.activations[l + 1];
            let a_in = &cache.activations[l];
            layer.activation.backward_inplace(a_out, &mut grad); // grad is now dz
            a_in.row_norms_sq_into(&mut a_norms);
            grad.row_norms_sq_into(&mut d_norms);
            for i in 0..batch {
                // ‖a_i δ_iᵀ‖² = ‖a_i‖²·‖δ_i‖²; bias grad adds ‖δ_i‖².
                norms[i] += a_norms[i] * d_norms[i] + d_norms[i];
            }
            grad.matmul_t_into(&layer.weight, &mut next);
            std::mem::swap(&mut grad, &mut next);
        }
        std::mem::swap(grad_in, &mut grad);
        arena.put_f64(d_norms);
        arena.put_f64(a_norms);
        arena.put_matrix(grad);
        arena.put_matrix(next);
    }

    /// Reweighted backward pass (the second pass of DP-SGD(R)/(F)):
    /// computes `Σ_i w_i · grad_i` by propagating the **unscaled**
    /// gradient chain (identical bits to the ghost-norm chain) and
    /// applying `w_i` only at the parameter-gradient reductions — the
    /// weight-grad GEMM (`aᵀ · diag(w) · δ`, fused into the packed-B
    /// epilogue) and the weighted bias column-sums. Valid because the
    /// backward graph is linear in the output gradient, and the only
    /// arrangement under which the fused clipped pass can be
    /// bitwise-identical to this two-pass path.
    ///
    /// The returned input gradient is **unscaled** (per-example rows,
    /// no `w_i` applied) — callers propagating it must apply weights at
    /// their own parameter-gradient sites.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != grad_out.rows()`.
    #[must_use]
    pub fn backward_weighted(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        weights: &[f32],
    ) -> (MlpGrads, Matrix) {
        let mut grads = MlpGrads::default();
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_weighted_into(
            cache,
            grad_out,
            weights,
            &mut grads,
            &mut grad_in,
            &mut ScratchArena::new(),
        );
        (grads, grad_in)
    }

    /// [`backward_weighted`](Self::backward_weighted) into caller-owned
    /// buffers (see [`backward_into`](Self::backward_into)).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != grad_out.rows()`.
    pub fn backward_weighted_into(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        weights: &[f32],
        grads: &mut MlpGrads,
        grad_in: &mut Matrix,
        arena: &mut ScratchArena,
    ) {
        assert_eq!(weights.len(), grad_out.rows(), "one weight per example");
        if grads.layers.len() != self.layers.len() {
            *grads = MlpGrads::zeros_like(self);
        }
        let mut grad = arena.take_matrix(0, 0);
        grad.copy_from(grad_out);
        let mut next = arena.take_matrix(0, 0);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let a_out = &cache.activations[l + 1];
            let a_in = &cache.activations[l];
            layer.activation.backward_inplace(a_out, &mut grad); // grad is now dz
            a_in.t_matmul_scaled_into(&grad, weights, &mut grads.layers[l].dw);
            grad.weighted_col_sums_into(weights, &mut grads.layers[l].db);
            grad.matmul_t_into(&layer.weight, &mut next);
            std::mem::swap(&mut grad, &mut next);
        }
        std::mem::swap(grad_in, &mut grad);
        arena.put_matrix(grad);
        arena.put_matrix(next);
    }

    /// Ghost-norm backward that additionally stashes each layer's
    /// post-activation gradient `δ` (dz) into `dz_cache` — the first
    /// phase of the fused clipped backward. The chain, the norm
    /// accumulation, and the returned input gradient are bit-identical
    /// to [`backward_ghost_norms_into`](Self::backward_ghost_norms_into);
    /// the stash costs two buffer swaps per layer, no copies.
    pub fn backward_ghost_norms_cached_into(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        norms: &mut Vec<f64>,
        grad_in: &mut Matrix,
        dz_cache: &mut Vec<Matrix>,
        arena: &mut ScratchArena,
    ) {
        let batch = grad_out.rows();
        norms.clear();
        norms.resize(batch, 0.0);
        dz_cache.resize_with(self.layers.len(), || Matrix::zeros(0, 0));
        let mut grad = arena.take_matrix(0, 0);
        grad.copy_from(grad_out);
        let mut next = arena.take_matrix(0, 0);
        let mut a_norms = arena.take_f64(0);
        let mut d_norms = arena.take_f64(0);
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let a_out = &cache.activations[l + 1];
            let a_in = &cache.activations[l];
            layer.activation.backward_inplace(a_out, &mut grad); // grad is now dz
            a_in.row_norms_sq_into(&mut a_norms);
            grad.row_norms_sq_into(&mut d_norms);
            for i in 0..batch {
                // ‖a_i δ_iᵀ‖² = ‖a_i‖²·‖δ_i‖²; bias grad adds ‖δ_i‖².
                norms[i] += a_norms[i] * d_norms[i] + d_norms[i];
            }
            grad.matmul_t_into(&layer.weight, &mut next);
            // Stash dz without copying: park it in the cache slot, then
            // continue the chain with the freshly propagated gradient.
            // Whatever the slots previously held is fully overwritten by
            // the next iteration's kernels.
            std::mem::swap(&mut grad, &mut dz_cache[l]);
            std::mem::swap(&mut grad, &mut next);
        }
        std::mem::swap(grad_in, &mut grad);
        arena.put_f64(d_norms);
        arena.put_f64(a_norms);
        arena.put_matrix(grad);
        arena.put_matrix(next);
    }

    /// Second phase of the fused clipped backward: parameter gradients
    /// from the dz matrices stashed by
    /// [`backward_ghost_norms_cached_into`](Self::backward_ghost_norms_cached_into),
    /// with clip factors applied inside the weight-grad GEMM epilogue.
    /// The per-layer GEMM inputs and kernels are exactly those of
    /// [`backward_weighted_into`](Self::backward_weighted_into), so the
    /// grads match that two-pass path bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `dz_cache` doesn't hold one matrix per layer.
    pub fn weighted_grads_from_cached(
        &self,
        cache: &MlpCache,
        dz_cache: &[Matrix],
        weights: &[f32],
        grads: &mut MlpGrads,
    ) {
        assert_eq!(dz_cache.len(), self.layers.len(), "one dz per layer");
        if grads.layers.len() != self.layers.len() {
            *grads = MlpGrads::zeros_like(self);
        }
        for (l, _) in self.layers.iter().enumerate().rev() {
            let a_in = &cache.activations[l];
            a_in.t_matmul_scaled_into(&dz_cache[l], weights, &mut grads.layers[l].dw);
            dz_cache[l].weighted_col_sums_into(weights, &mut grads.layers[l].db);
        }
    }

    /// Fused ghost-clipping backward (ROADMAP item 1, after FlashDP):
    /// one pass computes per-example ghost norms *and* the clipped
    /// aggregate gradient, never materializing per-example weight
    /// gradients and never re-running the gradient chain. `clip` maps
    /// the per-example squared norms to per-example weights (e.g.
    /// `min(1, C/‖g_i‖)`).
    ///
    /// Versus ghost-norms-then-weighted-backward this saves one full
    /// activation-gradient chain — per layer, the 3-GEMM two-pass
    /// backward (ghost `δ·Wᵀ` + weighted `aᵀ·diag(w)δ` + weighted
    /// `δ·Wᵀ`) becomes 2 GEMMs — while producing **bit-identical**
    /// gradients, norms, and input gradient (pinned by proptests).
    #[must_use]
    pub fn backward_clipped(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        clip: impl FnOnce(&[f64], &mut Vec<f32>),
    ) -> (MlpGrads, Matrix) {
        let mut grads = MlpGrads::default();
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_clipped_into(
            cache,
            grad_out,
            clip,
            &mut grads,
            &mut grad_in,
            &mut Vec::new(),
            &mut ScratchArena::new(),
        );
        (grads, grad_in)
    }

    /// [`backward_clipped`](Self::backward_clipped) into caller-owned
    /// buffers: `dz_cache` holds the per-layer activation gradients
    /// between the two phases (resized on first use, reused after), the
    /// arena supplies the norm and weight vectors — zero steady-state
    /// allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_clipped_into(
        &self,
        cache: &MlpCache,
        grad_out: &Matrix,
        clip: impl FnOnce(&[f64], &mut Vec<f32>),
        grads: &mut MlpGrads,
        grad_in: &mut Matrix,
        dz_cache: &mut Vec<Matrix>,
        arena: &mut ScratchArena,
    ) {
        let mut norms = arena.take_f64(0);
        self.backward_ghost_norms_cached_into(
            cache, grad_out, &mut norms, grad_in, dz_cache, arena,
        );
        let mut weights = arena.take_f32(0);
        clip(&norms, &mut weights);
        self.weighted_grads_from_cached(cache, dz_cache, &weights, grads);
        arena.put_f32(weights);
        arena.put_f64(norms);
    }

    /// Materialized per-example gradients (DP-SGD(B), §2.4): one
    /// [`MlpGrads`] per example. Memory scales with `B × params` — the
    /// very overhead DP-SGD(R) exists to avoid (§2.5).
    #[must_use]
    pub fn per_example_grads(&self, cache: &MlpCache, grad_out: &Matrix) -> Vec<MlpGrads> {
        let batch = grad_out.rows();
        // Run the standard backward chain once to get per-layer dz
        // (rows are per-example), then outer-product per example.
        let mut dzs: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        let mut grad = grad_out.clone();
        for (l, layer) in self.layers.iter().enumerate().rev() {
            let a_out = &cache.activations[l + 1];
            let dz = layer.activation.backward(a_out, &grad);
            grad = dz.matmul_t(&layer.weight);
            dzs.push(dz);
        }
        dzs.reverse();
        (0..batch)
            .map(|i| {
                let layers = self
                    .layers
                    .iter()
                    .enumerate()
                    .map(|(l, _)| {
                        let a_i = cache.activations[l].row_matrix(i);
                        let dz_i = dzs[l].row_matrix(i);
                        LayerGrad {
                            dw: a_i.t_matmul(&dz_i),
                            db: dz_i.row(0).to_vec(),
                        }
                    })
                    .collect();
                MlpGrads { layers }
            })
            .collect()
    }

    /// Applies a gradient: `θ -= lr · g`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn apply(&mut self, grads: &MlpGrads, lr: f32) {
        assert_eq!(
            grads.layers.len(),
            self.layers.len(),
            "layer count mismatch"
        );
        for (layer, g) in self.layers.iter_mut().zip(grads.layers.iter()) {
            layer.weight.axpy(-lr, &g.dw);
            for (b, &db) in layer.bias.iter_mut().zip(g.db.iter()) {
                *b -= lr * db;
            }
        }
    }

    /// Adds `−lr · scale · n` Gaussian noise (`n ~ N(0,1)` element-wise)
    /// to every parameter — the dense DP noise step both DP-SGD and
    /// LazyDP apply identically to MLP layers (Algorithm 1 note: "both
    /// DP-SGD(F) and LazyDP apply the identical DP protection for MLP
    /// layers").
    ///
    /// `param_base` namespaces this MLP's layers inside the noise
    /// source's dense-parameter address space: layer `l` is region
    /// `param_base + l`, its weights at element offsets `0..` and its
    /// bias after them. Each weight matrix is drawn in
    /// [`DENSE_NOISE_CHUNK`](lazydp_rng::parallel::DENSE_NOISE_CHUNK)
    /// chunks on `threads` workers, the noise applied as it is sampled
    /// ([`par_apply_dense_noise`]): no buffer, and the same bits for any
    /// `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn apply_dense_noise<N: RowNoise>(
        &mut self,
        noise: &mut N,
        iter: u64,
        param_base: u32,
        scale: f32,
        lr: f32,
        threads: usize,
    ) {
        let update = |x: &mut f32, n: f32| *x -= lr * scale * n;
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let param = param_base + l as u32;
            let w = layer.weight.as_mut_slice();
            let bias_offset = w.len() as u64;
            par_apply_dense_noise(noise, param, iter, 0, w, threads, update);
            noise.apply_unit_dense(param, iter, bias_offset, &mut layer.bias, |_, x, n| {
                update(x, n);
            });
        }
    }

    /// [`apply_dense_noise`](Self::apply_dense_noise) on one thread. The
    /// scratch-buffer argument is unused — the noise is applied as it is
    /// sampled — and kept only so existing callers compile.
    pub fn apply_dense_noise_with<N: RowNoise>(
        &mut self,
        noise: &mut N,
        iter: u64,
        param_base: u32,
        scale: f32,
        lr: f32,
        _buf: &mut Vec<f32>,
    ) {
        self.apply_dense_noise(noise, iter, param_base, scale, lr, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydp_rng::Xoshiro256PlusPlus;

    fn mlp_and_input(widths: &[usize]) -> (Mlp, Matrix) {
        let mut rng = Xoshiro256PlusPlus::seed_from(42);
        let mlp = Mlp::new(5, widths, &mut rng);
        let x = Matrix::from_fn(4, 5, |i, j| ((i * 7 + j * 3) as f32 % 5.0 - 2.0) / 3.0);
        (mlp, x)
    }

    /// Scalar loss for gradient checking: sum of outputs.
    fn loss_of(mlp: &Mlp, x: &Matrix) -> f32 {
        mlp.forward(x).output().as_slice().iter().sum()
    }

    #[test]
    fn forward_shapes() {
        let (mlp, x) = mlp_and_input(&[8, 3]);
        let cache = mlp.forward(&x);
        assert_eq!(cache.activations.len(), 3);
        assert_eq!(cache.output().shape(), (4, 3));
        assert_eq!(mlp.params(), 5 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let (mut mlp, x) = mlp_and_input(&[6, 2]);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::filled(4, 2, 1.0); // d(sum)/d(out) = 1
        let (grads, grad_in) = mlp.backward(&cache, &grad_out);
        let eps = 1e-3f32;
        // Check a scattering of weight coordinates in both layers.
        for l in 0..2 {
            for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
                if r >= mlp.layers[l].weight.rows() || c >= mlp.layers[l].weight.cols() {
                    continue;
                }
                let orig = mlp.layers[l].weight[(r, c)];
                mlp.layers[l].weight[(r, c)] = orig + eps;
                let up = loss_of(&mlp, &x);
                mlp.layers[l].weight[(r, c)] = orig - eps;
                let down = loss_of(&mlp, &x);
                mlp.layers[l].weight[(r, c)] = orig;
                let fd = (up - down) / (2.0 * eps);
                let got = grads.layers[l].dw[(r, c)];
                assert!(
                    (got - fd).abs() < 2e-2,
                    "layer {l} w[{r},{c}]: {got} vs {fd}"
                );
            }
            // Bias check.
            let orig = mlp.layers[l].bias[0];
            mlp.layers[l].bias[0] = orig + eps;
            let up = loss_of(&mlp, &x);
            mlp.layers[l].bias[0] = orig - eps;
            let down = loss_of(&mlp, &x);
            mlp.layers[l].bias[0] = orig;
            let fd = (up - down) / (2.0 * eps);
            assert!((grads.layers[l].db[0] - fd).abs() < 2e-2, "layer {l} bias");
        }
        // Input gradient check.
        let mut x2 = x.clone();
        let orig = x2[(1, 2)];
        x2[(1, 2)] = orig + eps;
        let up = loss_of(&mlp, &x2);
        x2[(1, 2)] = orig - eps;
        let down = loss_of(&mlp, &x2);
        let fd = (up - down) / (2.0 * eps);
        assert!((grad_in[(1, 2)] - fd).abs() < 2e-2, "input grad");
    }

    #[test]
    fn per_example_grads_sum_to_batch_grad() {
        let (mlp, x) = mlp_and_input(&[7, 4, 2]);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::from_fn(4, 2, |i, j| (i as f32 - 1.5) * (j as f32 + 0.5));
        let (batch_grads, _) = mlp.backward(&cache, &grad_out);
        let per_ex = mlp.per_example_grads(&cache, &grad_out);
        assert_eq!(per_ex.len(), 4);
        let mut sum = MlpGrads::zeros_like(&mlp);
        for g in &per_ex {
            sum.axpy(1.0, g);
        }
        for (s, b) in sum.layers.iter().zip(batch_grads.layers.iter()) {
            assert!(s.dw.max_abs_diff(&b.dw) < 1e-4, "weight grads sum");
            for (x, y) in s.db.iter().zip(b.db.iter()) {
                assert!((x - y).abs() < 1e-4, "bias grads sum");
            }
        }
    }

    #[test]
    fn ghost_norms_match_materialized_per_example_norms() {
        let (mlp, x) = mlp_and_input(&[6, 3, 2]);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::from_fn(4, 2, |i, j| ((i + 2 * j) as f32).sin());
        let (ghost, _) = mlp.backward_ghost_norms(&cache, &grad_out);
        let per_ex = mlp.per_example_grads(&cache, &grad_out);
        for (i, g) in per_ex.iter().enumerate() {
            let explicit = g.norm_sq();
            assert!(
                (ghost[i] - explicit).abs() < 1e-6 * explicit.max(1.0),
                "example {i}: ghost {} explicit {explicit}",
                ghost[i]
            );
        }
    }

    #[test]
    fn ghost_norm_input_grad_matches_plain_backward() {
        let (mlp, x) = mlp_and_input(&[6, 2]);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::filled(4, 2, 0.7);
        let (_, gi_plain) = mlp.backward(&cache, &grad_out);
        let (_, gi_ghost) = mlp.backward_ghost_norms(&cache, &grad_out);
        assert!(gi_plain.max_abs_diff(&gi_ghost) < 1e-7);
    }

    #[test]
    fn weighted_backward_equals_weighted_sum_of_per_example() {
        let (mlp, x) = mlp_and_input(&[5, 2]);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::from_fn(4, 2, |i, j| (i as f32 + 1.0) * 0.3 - j as f32 * 0.2);
        let weights = [0.5f32, 1.0, 0.0, 2.0];
        let (wg, _) = mlp.backward_weighted(&cache, &grad_out, &weights);
        let per_ex = mlp.per_example_grads(&cache, &grad_out);
        let mut expect = MlpGrads::zeros_like(&mlp);
        for (g, &w) in per_ex.iter().zip(weights.iter()) {
            expect.axpy(w, g);
        }
        for (a, b) in wg.layers.iter().zip(expect.layers.iter()) {
            assert!(a.dw.max_abs_diff(&b.dw) < 1e-5);
        }
    }

    fn clip_min_one(norms: &[f64], c: f64, w: &mut Vec<f32>) {
        w.clear();
        w.extend(norms.iter().map(|&n| {
            let norm = n.sqrt();
            if norm <= c {
                1.0
            } else {
                (c / norm) as f32
            }
        }));
    }

    #[test]
    fn fused_clipped_backward_matches_two_pass_bitwise() {
        let (mlp, x) = mlp_and_input(&[7, 4, 2]);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::from_fn(4, 2, |i, j| ((i * 3 + 2 * j) as f32).sin());
        // Middle C clips some examples; tiny C clips all; huge C none.
        for c in [1e-3f64, 0.5, 1e6] {
            let (norms, gi_two) = mlp.backward_ghost_norms(&cache, &grad_out);
            let mut w = Vec::new();
            clip_min_one(&norms, c, &mut w);
            let (grads_two, _) = mlp.backward_weighted(&cache, &grad_out, &w);
            let (grads_fused, gi_fused) =
                mlp.backward_clipped(&cache, &grad_out, |n, w| clip_min_one(n, c, w));
            assert_eq!(grads_two, grads_fused, "C={c}");
            assert_eq!(gi_two, gi_fused, "C={c} input grad");
        }
    }

    #[test]
    fn weighted_backward_input_grad_is_unscaled() {
        // Contract: backward_weighted_into propagates the unscaled
        // chain, so its input gradient equals the plain backward's.
        let (mlp, x) = mlp_and_input(&[5, 2]);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::from_fn(4, 2, |i, j| (i as f32 - 0.4) * (j as f32 + 0.9));
        let weights = [0.25f32, 1.0, 0.0, 1.75];
        let (_, gi_weighted) = mlp.backward_weighted(&cache, &grad_out, &weights);
        let (_, gi_plain) = mlp.backward(&cache, &grad_out);
        assert_eq!(gi_weighted, gi_plain);
    }

    #[test]
    fn apply_moves_against_gradient() {
        let (mut mlp, x) = mlp_and_input(&[4, 1]);
        let before = loss_of(&mlp, &x);
        let cache = mlp.forward(&x);
        let grad_out = Matrix::filled(4, 1, 1.0);
        let (grads, _) = mlp.backward(&cache, &grad_out);
        mlp.apply(&grads, 0.01);
        let after = loss_of(&mlp, &x);
        assert!(
            after < before,
            "gradient step must reduce sum-loss: {before} -> {after}"
        );
    }

    #[test]
    fn dense_noise_perturbs_all_layers_deterministically() {
        let (mut a, _) = mlp_and_input(&[4, 2]);
        let mut b = a.clone();
        let mut n1 = lazydp_rng::counter::CounterNoise::new(9);
        let mut n2 = lazydp_rng::counter::CounterNoise::new(9);
        a.apply_dense_noise(&mut n1, 3, 0, 0.5, 0.1, 1);
        b.apply_dense_noise(&mut n2, 3, 0, 0.5, 0.1, 3);
        assert_eq!(a, b, "same seed, same noise, any thread count");
        let mut c = a.clone();
        let mut n3 = lazydp_rng::counter::CounterNoise::new(10);
        c.apply_dense_noise(&mut n3, 3, 0, 0.5, 0.1, 1);
        assert_ne!(a, c, "different seed, different noise");
    }
}
