"""Acceptance suite: one test per criterion, tolerances pinned.

The long runs (t = 10^5, ten realizations) are shared through session
fixtures; the full module takes a few minutes.  Each test prints a
one-line verdict with its measured values, bypassing output capture, so
a plain `pytest tests/test_acceptance.py -v` shows them all.
"""

import random

import pytest
from scipy.stats import chisquare, kstest

from poptree.directory import sample_quality
from poptree.engine import SimConfig, Simulation, choose_update_index, run
from poptree.experiment import ExperimentSpec, run_experiment
from poptree.namespace import Namespace, ValueRecord, digest
from support import Invariants, records

CONTROL = SimConfig()  # N=100, s=1, p_update=.5, p_add=.75, p_file=.5, p_leave=0
S_VALUES = (0.25, 0.5, 1.0, 2.0, 4.0)


@pytest.fixture
def report(capsys):
    def _report(criterion: str, text: str) -> None:
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion}: PASS - {text}")

    return _report


def final_average(result):
    return result.average[-1]


@pytest.fixture(scope="session")
def control_run():
    return run(CONTROL)


@pytest.fixture(scope="session")
def p_update_runs():
    return {p: run(CONTROL._replace(p_update=p)) for p in (0.1, 0.9)}


@pytest.fixture(scope="session")
def peer_count_runs():
    return {n: run(CONTROL._replace(n_peers=n)) for n in (10, 1000)}


@pytest.fixture(scope="session")
def churn_runs():
    return {p: run(CONTROL._replace(p_leave=p)) for p in (0.1, 0.9)}


@pytest.fixture(scope="session")
def s_runs(control_run):
    runs = {1.0: control_run}
    for s in (0.25, 0.5, 2.0, 4.0):
        runs[s] = run(CONTROL._replace(s=s))
    return runs


def test_criterion_01_quality_law(report):
    details = []
    for s in S_VALUES:
        rng = random.Random(1000 + int(s * 100))
        draws = [sample_quality(s, rng) for _ in range(10_000)]
        mean = sum(draws) / len(draws)
        expected = 1 / (1 + s)
        assert abs(mean - expected) <= 0.02, f"s={s}: mean {mean} vs {expected}"
        ks = kstest(draws, lambda q: q ** (1 / s))
        assert ks.pvalue > 0.01, f"s={s}: KS p={ks.pvalue}"
        details.append(f"s={s} mean={mean:.3f}")
    report("01 quality-law", "; ".join(details))


def test_criterion_02_choice_function_oracle(report):
    d, k, draws = 4.0, 4, 100_000
    rng = random.Random(555)
    observed = [0] * k
    for _ in range(draws):
        observed[choose_update_index(d, k, rng.random())] += 1
    widths = [(d ** (v + 1) - d**v) / (d**k - 1) for v in range(k)]
    result = chisquare(observed, f_exp=[w * draws for w in widths])
    assert result.pvalue > 0.01, f"chi-square p={result.pvalue}"
    rng = random.Random(556)
    for _ in range(1000):
        p = rng.random()
        assert choose_update_index(1.0, k, p) == min(int(p * k), k - 1)
    report(
        "02 choice-function",
        f"chi-square p={result.pvalue:.3f} over {draws} draws; "
        "degenerate path exact for 10^3 draws",
    )


def test_criterion_03_control_run_quality_above_mean(control_run, report):
    final = final_average(control_run)
    quality = final.main_tree_avg_quality
    assert quality > 0.5, f"averaged main-tree quality {quality} not above 0.5"
    report(
        "03 control-quality",
        f"main-tree quality {quality:.3f} > 0.5 at t={final.t} "
        f"(expected band 0.6-0.8)",
    )


def test_criterion_04_low_update_frequency_beats_high(p_update_runs, report):
    low = final_average(p_update_runs[0.1]).main_tree_avg_quality
    high = final_average(p_update_runs[0.9]).main_tree_avg_quality
    assert low - high >= 0.05, f"quality gap {low - high:.3f} below 0.05"
    report(
        "04 update-frequency-ordering",
        f"quality p_update=0.1: {low:.3f} vs 0.9: {high:.3f} (gap {low - high:.3f})",
    )


def test_criterion_05_update_volume_law(p_update_runs, report):
    details = []
    for p, result in p_update_runs.items():
        final = final_average(result)
        updates = final.total_versions - final.total_nodes
        expected = p * CONTROL.t_max
        assert abs(updates - expected) <= 0.05 * expected, (
            f"p_update={p}: {updates} updates vs expected {expected}"
        )
        details.append(f"p={p}: {updates:.0f}~{expected:.0f}")
    report("05 volume-law", "; ".join(details))


def test_criterion_06_main_tree_sparsity(control_run, report):
    final = final_average(control_run)
    fraction = final.main_tree_size / final.total_nodes
    assert fraction < 0.01, f"main tree fraction {fraction:.4f} not below 1%"
    report(
        "06 sparsity",
        f"main tree {final.main_tree_size:.1f} of {final.total_nodes:.0f} nodes "
        f"({100 * fraction:.2f}%, expected 0.1-0.5%)",
    )


def test_criterion_07_small_populations_grow_larger_trees(peer_count_runs, report):
    small = final_average(peer_count_runs[10]).main_tree_size
    large = final_average(peer_count_runs[1000]).main_tree_size
    assert small > 10 * large, f"N=10 size {small} vs N=1000 size {large}"
    report(
        "07 peer-count-effect",
        f"main tree N=10: {small:.0f} nodes > 10 x N=1000: {large:.0f} nodes",
    )


def test_criterion_08_churn_robustness(churn_runs, report):
    details = []
    for p, result in churn_runs.items():
        quality = final_average(result).main_tree_avg_quality
        assert quality > 0.5, f"p_leave={p}: quality {quality}"
        details.append(f"p_leave={p}: {quality:.3f}")
    report("08 churn-robustness", "; ".join(details) + " (both > 0.5)")


def test_criterion_09_quality_above_mean_for_every_s(s_runs, report):
    details = []
    for s in S_VALUES:
        quality = final_average(s_runs[s]).main_tree_avg_quality
        mean_quality = 1 / (1 + s)
        assert quality > mean_quality, (
            f"s={s}: main-tree quality {quality:.3f} vs update mean {mean_quality:.3f}"
        )
        details.append(f"s={s}: {quality:.3f}>{mean_quality:.3f}")
    report("09 s-sweep", "; ".join(details))


def test_criterion_10_structural_invariants_over_a_control_run(report):
    sim = Simulation(CONTROL._replace(realizations=1))
    invariants = Invariants(sim)
    invariants.check()
    blocks = CONTROL.t_max // 1000
    for _ in range(blocks):
        for _ in range(1000):
            record = sim.step()
            # the walker's preferences name the versions it occupied, or the
            # new version of the node it updated, a directory as well
            path = records(sim.store, sim.peers.preferences_of(record.peer), record.path)
            assert all(v.is_dir for v in path), "file version on an update path"
        invariants.check()
    report(
        "10 structural-invariants",
        f"{blocks} blocks x (index consistency, parent uniqueness, "
        f"immutability, viewer bounds, directory-only paths): zero violations",
    )


def test_criterion_11_determinism_byte_identical_series(tmp_path, report):
    config = CONTROL._replace(t_max=10_000, realizations=1)
    for name in ("a", "b"):
        run_experiment(ExperimentSpec(base=config, out_dir=tmp_path / name))
    first = (tmp_path / "a" / "series.csv").read_bytes()
    second = (tmp_path / "b" / "series.csv").read_bytes()
    assert first == second
    report(
        "11 determinism",
        f"two t=10^4 runs agree on all {len(first)} bytes of series.csv",
    )


def test_criterion_12_dht_store_semantics(report):
    def record(tag):
        return ValueRecord(tag, digest(tag))

    key = digest("a-name")
    # same peer overwrites
    ns = Namespace()
    ns.put(1, key, record("v1"))
    ns.put(1, key, record("v2"))
    assert ns.get(key) == {record("v2")}
    # different peers coexist
    ns = Namespace()
    ns.put(1, key, record("v1"))
    ns.put(2, key, record("v2"))
    assert ns.get(key) == {record("v1"), record("v2")}
    # fresh key, single writer
    ns = Namespace()
    ns.put(3, key, record("v1"))
    assert ns.get(key) == {record("v1")}
    report(
        "12 dht-semantics",
        "overwrite, multi-writer coexistence and single-writer cases exact",
    )
