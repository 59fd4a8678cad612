"""Tests for the reservoir hyperparameter grid: one run per reservoir, rows per α."""

import pytest

from repro.reservoir import reservoir_grid_campaign, reservoir_nmse_task

SMALL = dict(length=30, levels=3, washout=5)
ALPHAS = (1e-4, 1e-2, 1e-6)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    cache = tmp_path_factory.mktemp("grid-cache")
    kwargs = dict(
        input_gains=(0.6, 1.2),
        drive_biases=(0.8, 1.0),
        alphas=ALPHAS,
        cache=cache,
        seed=3,
        **SMALL,
    )
    return reservoir_grid_campaign(**kwargs), reservoir_grid_campaign(**kwargs)


class TestReservoirNmseTask:
    def test_one_record_per_alpha(self):
        records = reservoir_nmse_task(alphas=ALPHAS, **SMALL)
        assert [record["alpha"] for record in records] == list(ALPHAS)
        assert all(record["n_features"] == 9 for record in records)
        assert len({record["nmse"] for record in records}) == len(ALPHAS)

    def test_nmse_values_pinned(self):
        records = reservoir_nmse_task(alphas=ALPHAS, **SMALL)
        assert [record["nmse"] for record in records] == pytest.approx(
            [1.1942027958283845, 1.3568895322557237, 1.9150070433342254],
            rel=1e-9,
        )

    def test_alphas_share_one_shot_noise_draw(self):
        """With shots > 0 every α is scored on the same sampled features."""
        joint = reservoir_nmse_task(alphas=ALPHAS, shots=40, seed=11, **SMALL)
        for alpha, record in zip(ALPHAS, joint):
            (alone,) = reservoir_nmse_task(
                alphas=(alpha,), shots=40, seed=11, **SMALL
            )
            assert alone == record


class TestReservoirGrid:
    def test_campaign_runs_each_reservoir_once(self, grid):
        out, _ = grid
        assert len(out["campaign"]) == 4
        assert len(out["rows"]) == 4 * len(ALPHAS)

    def test_rows_equal_standalone_tasks(self, grid):
        out, _ = grid
        rows = iter(out["rows"])
        for point in out["campaign"].points:
            for alpha in ALPHAS:
                row = next(rows)
                assert "alphas" not in row
                assert (row["input_gain"], row["drive_bias"], row["alpha"]) == (
                    point.params["input_gain"],
                    point.params["drive_bias"],
                    alpha,
                )
                (alone,) = reservoir_nmse_task(
                    input_gain=row["input_gain"],
                    drive_bias=row["drive_bias"],
                    alphas=(alpha,),
                    seed=point.seed,
                    **SMALL,
                )
                assert {key: row[key] for key in alone} == alone

    def test_best_is_argmin_over_rows(self, grid):
        out, _ = grid
        best = min(out["rows"], key=lambda row: row["nmse"])
        assert out["best"] == best

    def test_replay_is_all_cache_hits(self, grid):
        out, again = grid
        assert again["campaign"].cache_hits == len(again["campaign"]) == 4
        assert again["rows"] == out["rows"]
        assert again["best"] == out["best"]
