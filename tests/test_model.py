import numpy as np
import pytest

from dartclean.errors import ShapeError
from dartclean.model import LatentState, kl_divergence, state_shapes
from dartclean.preprocess import NormStats
from dartclean.series_io import load_checkpoint, save_checkpoint
from tests.conftest import plain_decoder, tiny_model
from tests.oracles import oracle_bn_forward, oracle_encode


def _latent(mu, logvar):
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    logvar = np.atleast_2d(np.asarray(logvar, dtype=float))
    return LatentState(mu=mu, logvar=logvar, z=mu, eps=np.zeros_like(mu))


class TestKlDivergence:
    def test_prior_equals_posterior(self):
        assert kl_divergence(_latent([0.0, 0.0], [0.0, 0.0])) == 0.0

    def test_unit_mean_unit_sigma(self):
        assert kl_divergence(_latent([1.0], [0.0])) == pytest.approx(0.5, abs=1e-12)

    def test_matches_monte_carlo(self, rng):
        mu = rng.normal(size=(1, 3))
        logvar = rng.normal(scale=0.5, size=(1, 3))
        sigma = np.exp(0.5 * logvar)
        z = mu + sigma * rng.standard_normal((1_000_000, 3))
        log_q = -0.5 * (((z - mu) / sigma) ** 2 + logvar + np.log(2 * np.pi))
        log_p = -0.5 * (z ** 2 + np.log(2 * np.pi))
        mc = float(np.mean(np.sum(log_q - log_p, axis=1)))
        analytic = kl_divergence(_latent(mu, logvar))
        assert abs(mc - analytic) <= 0.01 * max(analytic, 1e-3)

    def test_non_negative_on_random_draws(self, rng):
        mu = rng.normal(scale=2.0, size=(10_000, 4))
        logvar = rng.normal(scale=2.0, size=(10_000, 4))
        per_row = 0.5 * np.sum(mu ** 2 + np.exp(logvar) - 1.0 - logvar, axis=1)
        assert np.all(per_row >= 0.0)


class TestEncode:
    def test_infer_z_equals_mu(self, rng):
        model = tiny_model()
        X = rng.normal(size=(5, 6))
        z, _ = model.infer(X)
        assert np.array_equal(z, oracle_encode(model, X, train=False)[0].mu)
        model.logvar_head.b[:] = 3.0   # no noise scaled by the variance reaches z
        assert np.array_equal(model.infer(X)[0], z)

    def test_train_mode_deterministic_per_seed(self):
        model = tiny_model()
        x = np.random.default_rng(0).normal(size=(4, 6))
        a, _ = model.encode(x, rng=np.random.default_rng(9))
        b, _ = model.encode(x, rng=np.random.default_rng(9))
        assert np.array_equal(a.z, b.z)

    def test_fresh_model_outputs_finite_and_clamped(self, rng):
        model = tiny_model(seed=7)
        logvar = np.empty((16, 4))
        z, _ = model.infer(rng.normal(size=(16, 6)), logvar_out=logvar)
        assert np.all(np.isfinite(z))
        assert np.all(np.abs(logvar) <= 10.0)

    def test_wrong_width_rejected(self, rng):
        with pytest.raises(ShapeError):
            tiny_model().encode(rng.normal(size=(3, 7)))


class TestDecode:
    """The infer-mode decoder, fed chosen latents: with ``blend_alpha`` 0,
    ``Vae.infer`` decodes ``prev_z`` itself."""

    def test_zero_decoder_beta_one_is_identity(self, rng):
        model = plain_decoder(tiny_model(), 1.0)
        x = rng.normal(size=(3, 6))
        _, xhat = model.infer(x, prev_z=np.zeros((3, 4)), blend_alpha=0.0)
        assert np.array_equal(xhat, x)

    def test_alpha_zero_removes_layer_skips(self, rng):
        model = tiny_model(seed=5)
        x = rng.normal(size=(2, 6))
        z = rng.normal(size=(2, 4))
        for alpha in model.dec_alpha:
            alpha[...] = 0.0
        _, without_skip = model.infer(x, prev_z=z, blend_alpha=0.0)
        # recompute the plain stack by hand
        h = z
        for dn, bn in zip(model.dec_dense, model.dec_bn):
            u = h @ dn.W.T + dn.b
            v, _ = oracle_bn_forward(bn, u, train=False)
            h = np.maximum(v, 0.0)
        expect = h @ model.out_layer.W.T + model.out_layer.b + model.beta * x
        assert np.allclose(without_skip, expect, atol=1e-12)

    def test_identical_rows_stay_identical(self, rng):
        model = tiny_model(seed=2)
        w = rng.normal(size=6)
        x = np.tile(w, (3, 1))
        z = np.tile(rng.normal(size=4), (3, 1))
        _, xhat = model.infer(x, prev_z=z, blend_alpha=0.0)
        assert np.array_equal(xhat[0], xhat[1])
        assert np.array_equal(xhat[0], xhat[2])


class TestLayerSkip:
    """The decoder's layer skip against a truncated-identity projection."""

    @staticmethod
    def _oracle(model, z, x):
        h = z
        for dn, bn, alpha in zip(model.dec_dense, model.dec_bn, model.dec_alpha):
            u, _ = dn.forward(h)
            proj = np.zeros((u.shape[1], h.shape[1]))
            k = min(proj.shape)
            proj[:k, :k] = np.eye(k)
            v, _ = oracle_bn_forward(bn, u + alpha * (h @ proj.T), train=False)
            h = np.maximum(v, 0.0)
        y, _ = model.out_layer.forward(h)
        return y + model.beta * x

    @pytest.mark.parametrize("hidden", [(5,), (3, 5)], ids=["expanding", "shrinking"])
    def test_matches_truncated_identity_projection(self, rng, hidden):
        model = tiny_model(hidden=hidden, seed=6, skip_alpha_init=0.7)
        for bn in model.dec_bn:
            bn.running_mean[...] = rng.normal(size=bn.running_mean.shape)
            bn.running_var[...] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
        x = rng.normal(size=(7, 6))
        z = rng.normal(size=(7, 4))
        _, xhat = model.infer(x, prev_z=z, blend_alpha=0.0)
        assert np.array_equal(xhat, self._oracle(model, z, x))


class TestCompositeLoss:
    def test_perfect_reconstruction_zero_loss(self, rng):
        model = tiny_model()
        x = rng.normal(size=(4, 6))
        latent = _latent(np.zeros((4, 4)), np.zeros((4, 4)))
        lb = model.composite_loss(x, x.copy(), latent, step=0)
        assert lb.recon == 0.0 and lb.kl == 0.0
        assert lb.temporal == 0.0 and lb.mean == 0.0
        assert lb.total == 0.0

    def test_annealing_factor(self, rng):
        model = tiny_model()
        x = rng.normal(size=(2, 6))
        lb = model.composite_loss(x, x, _latent(np.zeros((2, 4)), np.zeros((2, 4))),
                                  step=2500, t_anneal=5000)
        assert lb.beta_t == 0.5

    def test_constant_shift_isolates_mean_penalty(self, rng):
        model = tiny_model()
        x = rng.normal(size=(3, 6))
        c = 0.7
        lb = model.composite_loss(x, x + c, _latent(np.zeros((3, 4)), np.zeros((3, 4))),
                                  step=0)
        assert lb.temporal == pytest.approx(0.0, abs=1e-15)
        assert lb.mean == pytest.approx(c, abs=1e-12)
        assert lb.recon == pytest.approx(c ** 2, abs=1e-12)

    def test_total_is_declared_combination(self, rng):
        model = tiny_model()
        x = rng.normal(size=(3, 6))
        xhat = rng.normal(size=(3, 6))
        latent = _latent(rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
        lb = model.composite_loss(x, xhat, latent, step=1000, t_anneal=5000,
                                  lam_temporal=0.1, lam_mean=0.1)
        expect = lb.recon + lb.beta_t * lb.kl + 0.1 * lb.temporal + 0.1 * lb.mean
        assert abs(lb.total - expect) <= 1e-12


class TestGlobalSkip:
    def test_large_loss_limits_to_beta0(self):
        model = tiny_model()
        assert model.update_global_skip(1e12) == pytest.approx(0.8, abs=1e-6)

    def test_zero_loss_value(self):
        model = tiny_model()
        assert model.update_global_skip(0.0) == pytest.approx(0.8 * np.exp(-0.5))

    def test_monotone_in_loss(self):
        model = tiny_model()
        betas = [model.update_global_skip(l) for l in np.linspace(0.0, 50.0, 200)]
        assert np.all(np.diff(betas) > 0)

    def test_range_bounds(self):
        model = tiny_model()
        for l in [0.0, 0.01, 1.0, 100.0]:
            beta = model.update_global_skip(l)
            assert 0.8 * np.exp(-0.5) <= beta <= 0.8

    def test_identity_bound_with_zero_decoder(self, rng):
        # with the decoder zeroed, MSE == (1-beta)^2 * mean(x^2)
        model = plain_decoder(tiny_model(), 0.6)
        x = rng.normal(size=(4, 6))
        _, xhat = model.infer(x, prev_z=np.zeros((4, 4)), blend_alpha=0.0)
        mse = np.mean((xhat - x) ** 2)
        assert mse == pytest.approx((1 - 0.6) ** 2 * np.mean(x ** 2), rel=1e-12)


class TestGradients:
    def _check(self, use_eps, hidden=(5,)):
        model = tiny_model(window=6, hidden=hidden, latent=4, seed=1)
        rng = np.random.default_rng(42)
        X = rng.normal(size=(3, 6))
        eps = rng.standard_normal((3, 4)) if use_eps else np.zeros((3, 4))

        def total():
            latent, _ = model.encode(X, eps=eps)
            xhat, _ = model.decode(latent.z, X)
            return model.composite_loss(X, xhat, latent, step=2500).total

        _, _, grads = model.loss_and_grads(X, step=2500, eps=eps)
        params = model.trainable()
        params["beta"] = model.beta
        h = 1e-5
        worst = 0.0
        for name, arr in params.items():
            g = np.atleast_1d(np.asarray(grads[name], dtype=float))
            flat = np.atleast_1d(arr).reshape(-1)
            gflat = g.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                fp = total()
                flat[j] = orig - h
                fm = total()
                flat[j] = orig
                fd = (fp - fm) / (2 * h)
                rel = abs(gflat[j] - fd) / max(1e-6, abs(gflat[j]) + abs(fd))
                worst = max(worst, rel)
        return worst

    def test_gradcheck_infer_style(self):
        # dropout off, eps = 0: pure deterministic path
        assert self._check(use_eps=False) <= 1e-4

    def test_gradcheck_with_reparameterized_noise(self):
        assert self._check(use_eps=True) <= 1e-4

    def test_gradcheck_shrinking_decoder_skip(self):
        # decoder widths 4 -> 5 -> 3: the second block's skip is cut, not padded
        assert self._check(use_eps=True, hidden=(3, 5)) <= 1e-4

    def test_zero_output_gradient_gives_zero_grads(self, rng):
        model = tiny_model()
        X = rng.normal(size=(2, 6))
        latent, enc_cache = model.encode(X, eps=np.zeros((2, 4)))
        xhat, dec_cache = model.decode(latent.z, X)
        grads = {}
        gz = model.decode_backward(np.zeros_like(xhat), dec_cache, grads)
        model.encode_backward(gz, np.zeros_like(gz), enc_cache, grads)
        for name, g in grads.items():
            assert not np.asarray(g).any(), name


class TestStateRoundTrip:
    def test_clone_then_load_is_identity(self, rng):
        model = tiny_model(seed=4)
        state = model.clone_state()
        model.loss_and_grads(rng.normal(size=(8, 6)), step=0, rng=np.random.default_rng(1))
        model.update_global_skip(0.3)
        model.load_state(state)
        for name, arr in model.state.items():
            assert np.array_equal(arr, state[name]), name

    @pytest.mark.parametrize("hidden", [(5,), (3, 5), (16, 8, 4)])
    def test_state_shapes_describe_the_model(self, hidden):
        # the table load_checkpoint checks files against, and the flat
        # vector's layout, must name every array in checkpoint order
        model = tiny_model(hidden=hidden, window=7, latent=4)
        shapes = state_shapes(model.config)
        assert list(shapes) == list(model.state)
        assert shapes == {name: a.shape for name, a in model.state.items()}

    def test_missing_array_rejected(self):
        model = tiny_model()
        state = model.clone_state()
        del state["beta"]
        with pytest.raises(ShapeError):
            model.load_state(state)

    def test_alphas_written_in_place_reach_params_state_and_checkpoint(self, rng, tmp_path):
        # the alphas the forward reads are the trained parameters: views of
        # the flat vector, so the state, Adam and a saved checkpoint all see
        # a value written into them
        model = tiny_model(hidden=(5, 3), seed=6)
        model.dec_alpha[0][...] = -0.3
        model.dec_alpha[1][...] = 0.45
        assert model.trainable()["dec1.alpha"] is model.dec_alpha[1]
        assert model.params[model.spans["dec0.alpha"]].tolist() == [-0.3]
        assert model.params[model.spans["dec1.alpha"]].tolist() == [0.45]
        X = rng.normal(size=(30, 6))
        z, xhat = model.infer(X)
        twin = tiny_model(hidden=(5, 3), seed=6)
        twin.load_state(model.clone_state())
        z_t, xhat_t = twin.infer(X)
        assert z.tobytes() == z_t.tobytes() and xhat.tobytes() == xhat_t.tobytes()
        path = tmp_path / "ck.json"
        save_checkpoint(model, NormStats(0.0, 1.0), path)
        loaded, _ = load_checkpoint(path)
        z_l, xhat_l = loaded.infer(X)
        assert z.tobytes() == z_l.tobytes() and xhat.tobytes() == xhat_l.tobytes()

    def test_alphas_cannot_be_rebound(self):
        model = tiny_model(hidden=(5, 3))
        with pytest.raises(TypeError):
            model.dec_alpha[0] = np.array(0.3)
