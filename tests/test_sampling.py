"""Quantile evaluation in row blocks: the draws and quantile curves equal
the whole-array loop of ``sampling_reference`` bit for bit.

The bit-equality check compares against whole-array BLAS products, whose
bytes depend on the BLAS thread count, so it runs this file as a script in a
subprocess with BLAS pinned to one thread. Run directly, the file prints the
mismatches it finds as JSON.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gbc import pipeline, quantile
from gbc.models import ReferenceTable
from gbc.nets import OptimizerSpec
from gbc.rng import RngStream
from gbc.summaries import fit_linear_summary, fit_posterior_mean_net
from sampling_reference import reference_quantile_values, reference_sample

SIZES = [*range(70), 1023, 1024, 1025, 1026, 2047, 2048, 2049, 3000, 3073,
         4999, 5000, 10_000, 12_345]
# The 10,000-level curve spans many blocks; the default grid and one level
# are the single-block curves of posterior_quantile_curve and perfbench.
CURVES = {
    "curve": (np.arange(10_000) + 0.5) / 10_000,
    "tau-grid-curve": np.array(pipeline.DEFAULT_TAU_GRID),
    "one-level-curve": np.array([0.3]),
}
PINNED_BLAS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _table(d, seed):
    gen = RngStream(seed).generator
    thetas = gen.normal(size=(300, d))
    ys = thetas @ gen.normal(size=(d, 6)) + 0.5 * gen.normal(size=(300, 6))
    return ReferenceTable(thetas=thetas, ys=ys, seed=seed, simulator="normal-location")


def _chain(table, summary):
    """A chain of full-width nets (the default NetworkSpec) after one epoch."""
    nets = [
        quantile.train_iqn(table, summary, k, quantile.NetworkSpec(),
                           OptimizerSpec(epochs=1), RngStream(4).child(f"train-{k}"))[0]
        for k in range(table.theta_dim)
    ]
    return quantile.AutoregressiveQuantileModel(summary, nets), table.ys[0]


def _chains():
    linear = _table(1, 31)
    network = _table(3, 32)
    opt = OptimizerSpec(epochs=1)
    fit = fit_posterior_mean_net(network, RngStream(5), opt)
    return {
        "d1-linear": _chain(linear, fit_linear_summary(linear)),
        "d3-network": _chain(network, fit.summary),
    }


def _mismatches():
    """Per chain: the sizes whose draws differ from the reference, and
    which d = 1 quantile curves differ."""
    found = {}
    for name, (model, y_obs) in _chains().items():
        bad = [n for n in SIZES
               if model.sample(y_obs, n, RngStream(9)).tobytes()
               != reference_sample(model, y_obs, n, RngStream(9)).tobytes()]
        if model.dim == 1:
            bad += [label for label, taus in CURVES.items()
                    if model.quantile_values(y_obs, taus).tobytes()
                    != reference_quantile_values(model, y_obs, taus).tobytes()]
        found[name] = bad
    return found


def test_blocked_sampling_is_bit_equal_to_the_whole_array_loop():
    env = dict(os.environ, **{var: "1" for var in PINNED_BLAS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.run([sys.executable, __file__], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    assert len(found) == 2
    assert all(bad == [] for bad in found.values()), found


def test_row_blocks_start_at_block_multiples_and_fold_a_one_row_tail():
    rows = quantile.SAMPLE_BLOCK_ROWS
    assert quantile._row_blocks(0) == []
    assert quantile._row_blocks(1) == [slice(0, 1)]
    assert quantile._row_blocks(rows) == [slice(0, rows)]
    assert quantile._row_blocks(rows + 1) == [slice(0, rows + 1)]
    assert quantile._row_blocks(rows + 2) == [slice(0, rows), slice(rows, rows + 2)]
    assert quantile._row_blocks(2 * rows + 1) == [
        slice(0, rows), slice(rows, 2 * rows + 1)]
    for n in SIZES:
        blocks = quantile._row_blocks(n)
        assert [b.start for b in blocks] == list(range(0, n, rows))[:len(blocks)]
        assert sum(b.stop - b.start for b in blocks) == n
        assert all(b.stop - b.start > 1 for b in blocks[1:])


def test_a_shared_conditioning_vector_runs_psi_once_per_call(monkeypatch):
    # 10,000 rows are ten blocks; psi runs once, on two copies of the vector
    # (one copy only for a single level, as the whole-array pass does).
    model, y_obs = _chains()["d1-linear"]
    psi = model.nets[0].psi
    rows = []

    def counted(x, forward=psi.forward):
        rows.append(x.shape[0])
        return forward(x)

    monkeypatch.setattr(psi, "forward", counted)
    s = model._summary_of(y_obs)
    model.nets[0].quantile_values(s, np.full(10_000, 0.5))
    assert rows == [2]
    rows.clear()
    model.sample(y_obs, 10_000, RngStream(9))
    assert rows == [2]
    rows.clear()
    model.nets[0].quantile_values(s, np.full(1, 0.5))
    assert rows == [1]


def test_conditioning_rows_must_match_the_levels():
    model, _ = _chains()["d1-linear"]
    with pytest.raises(ValueError, match="3 conditioning rows for 5 quantile levels"):
        model.nets[0].quantile_values(np.zeros((3, 1)), np.full(5, 0.5))


def test_quantile_levels_outside_the_unit_interval_raise_from_a_later_block():
    model, y_obs = _chains()["d1-linear"]
    taus = np.full(3000, 0.5)
    taus[2500] = 1.5
    with pytest.raises(ValueError, match="quantile levels"):
        model.quantile_values(y_obs, taus)


if __name__ == "__main__":
    print(json.dumps(_mismatches()))
