"""find_equilibria's rest-level count against a validated-numerics oracle.

tests/_interval.py counts the buffer-active rest levels in outward-rounded
interval arithmetic, from the model equations alone.  Where it decides
the count, floating point must give the same one.
"""
import random

import pytest

from _interval import count_rest_levels
from conftest import draw_buffered_config, draw_threshold_inputs

from bufchem import (BRANCH_POSITIVE, BufferedConfig, Haldane,
                     find_equilibria, split_threshold)


def _positive_levels(config: BufferedConfig) -> list[float]:
    return [eq.s1 for eq in find_equilibria(config)
            if eq.branch == BRANCH_POSITIVE]


def _certified(config: BufferedConfig) -> tuple[int, int]:
    return count_rest_levels(config.model, config.S_in, config.D,
                             config.alpha, config.r)


def _random_configs(rng: random.Random) -> list[BufferedConfig]:
    """Haldane and Monod draws, bistable Haldane draws at a random split,
    and the README law at random splits across its band of three levels."""
    configs = [draw_buffered_config(rng, monod_share=0.3) for _ in range(30)]
    for _ in range(20):
        model, S_in, D, alpha = draw_threshold_inputs(rng)
        configs.append(BufferedConfig(model, S_in, D, alpha,
                                      rng.uniform(0.05, 0.95)))
    readme = Haldane(12.0, 1.0, 0.08)
    configs += [BufferedConfig(readme, 1.4, 1.0, alpha,
                               rng.uniform(0.05, 0.95))
                for alpha in (0.35, 0.471, 0.5) for _ in range(8)]
    return configs


def test_certified_count_matches_find_equilibria_at_random_splits():
    decided, counts = 0, set()
    for config in _random_configs(random.Random(15)):
        count, undecided = _certified(config)
        if undecided:
            continue
        assert count == len(_positive_levels(config)), config
        decided += 1
        counts.add(count)
    assert decided >= 60
    assert counts == {1, 3}


@pytest.mark.parametrize("alpha, r, count", [
    (0.35, 0.48, 1), (0.35, 0.65, 3), (0.471, 0.5, 3), (0.5, 0.45, 3)])
def test_certified_counts_on_the_readme_law(alpha, r, count):
    config = BufferedConfig(Haldane(12.0, 1.0, 0.08), 1.4, 1.0, alpha, r)
    assert _certified(config) == (count, 0)
    assert len(_positive_levels(config)) == count


@pytest.mark.xfail(strict=True, reason=(
    "split_threshold returns r_bar = cap = 0.72269 at alpha 0.471 while "
    "the minus band (0.4602, 0.5430) lies below it; at r = 0.5 "
    "find_equilibria gives three buffer-positive rest points, "
    "s1 = 0.22629, 0.52123 and 0.73261"))
def test_r_bar_lies_below_every_split_with_three_rest_levels():
    model = Haldane(12.0, 1.0, 0.08)
    config = BufferedConfig(model, 1.4, 1.0, 0.471, 0.5)
    assert _certified(config) == (3, 0)
    assert _positive_levels(config) == pytest.approx(
        [0.22629, 0.52123, 0.73261], abs=1e-5)
    assert split_threshold(model, 1.4, 1.0, 0.471).r_bar <= config.r
