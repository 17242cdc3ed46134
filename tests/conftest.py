import numpy as np
import pytest

from olivenet import data as dmod
from olivenet import nn
from olivenet import synth


TOY_HP = nn.HyperParams(
    filters1=2, filters2=3, ksize1=5, ksize2=3, pool=2,
    dropout=0.0, epochs=5, batch=4, learning_rate=1e-3, dense_sizes=(6, 4),
)
TOY_P = 64


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def toy_net(rng):
    return nn.build_network(TOY_HP, TOY_P, rng)


@pytest.fixture(scope="session")
def bundled_records():
    return dmod.load_bundled_labels()


@pytest.fixture(scope="session")
def small_dataset(bundled_records):
    """4 oils x 3 repetitions on a short grid; quick to train on."""
    cfg = synth.default_generator_config(seed=11)
    grid = dmod.default_grid(pixels=128)
    return synth.generate_dataset(bundled_records[:4], 395, 3, cfg, grid)


def train_step(net, xs, ys, rng=None):
    """``nn._train_step`` on raw spectra (B, P): (pred, MSE gradients)."""
    return nn._train_step(net, nn._conv1_blocks(net, xs), ys, rng,
                          *nn._step_buffers(net, len(xs)))


def finite_difference(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t an array in place."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = x[i]
        x[i] = old + h
        fp = f()
        x[i] = old - h
        fm = f()
        x[i] = old
        g[i] = (fp - fm) / (2.0 * h)
    return g
