import numpy as np

from lhts.diffusion import (
    DenoiserMLP,
    DiffusionModel,
    linear_schedule,
    load_diffusion_checkpoint,
    save_diffusion_checkpoint,
)


def test_checkpoint_roundtrip_non_default_n_freqs(tmp_path):
    rng = np.random.default_rng(0)
    net = DenoiserMLP(2, hidden=8, n_freqs=2, rng=rng)
    model = DiffusionModel(linear_schedule(5), dim=2, net=net)
    path = tmp_path / "diffusion.json"
    save_diffusion_checkpoint(model, path)
    back = load_diffusion_checkpoint(path)
    x = rng.normal(size=(6, 2))
    k = np.arange(1, 7) % 5 + 1
    assert back.net.n_freqs == 2
    assert np.array_equal(back.predict_noise(x, k), model.predict_noise(x, k))
