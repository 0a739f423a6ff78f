"""The pure parts of ``tools/ab.py``, the A/B harness.

No tree is launched and no group measured: the harness's schedule, merge,
digest check and paired figures are plain functions of the results.
"""

import importlib.util
import os
import sys
import types

import pytest

AB_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "ab.py")


def _load():
    spec = importlib.util.spec_from_file_location("tools_ab", AB_PATH)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


ab = _load()


@pytest.mark.parametrize(
    "nested, path",
    [
        ({"run": {"summary_sha256": "x"}}, "run/summary_sha256"),
        ({"structure": {"1600": {"sha256": "x"}}}, "structure/1600/sha256"),
        ({"wgflow_run": {"readme": {"summary_sha256": "x"}}}, "wgflow_run/readme/summary_sha256"),
        ({"readme": {"weak_residual_hex": "0x1p-36"}}, "readme/weak_residual_hex"),
    ],
)
def test_a_digest_that_differs_between_trees_stops_the_report(nested, path):
    base = ab.flatten(dict(nested, other={"s": 1.0, "pieces": 3}))
    change = dict(base, **{"other/s": 2.0, "other/pieces": 4})
    ab.check_digests(base, change)  # only digests must agree
    with pytest.raises(SystemExit, match=path):
        ab.check_digests(base, dict(base, **{path: "y"}))
    missing = dict(base)
    del missing[path]
    with pytest.raises(SystemExit, match=path):
        ab.check_digests(base, missing)


def test_merge_keeps_the_least_and_refuses_a_value_that_moves():
    passes = [
        {"p/run_s": 2.0, "p/maxrss_kib": 30, "p/sha256": "x"},
        {"p/run_s": 1.0, "p/maxrss_kib": 31, "p/sha256": "x"},
    ]
    assert ab.merge(passes) == {"p/run_s": 1.0, "p/run_s_spread": 2.0, "p/maxrss_kib": 30, "p/sha256": "x"}
    passes[1]["p/sha256"] = "y"
    with pytest.raises(SystemExit, match="p/sha256"):
        ab.merge(passes)


def test_speedups_are_the_median_and_range_of_per_pass_ratios():
    base = [{"p/x_s": b, "p/rss_kib": k, "p/n": 1} for b, k in ((2.0, 100), (3.0, 110), (1.0, 90))]
    change = [{"p/x_s": c, "p/rss_kib": k, "p/n": 1} for c, k in ((1.0, 101), (2.0, 105), (1.0, 90))]
    out = ab.paired(base, change)
    # the ratio of each tree's least time would read 1.0
    assert out["speedup"] == {"p/x_s": {"median": 1.5, "min": 1.0, "max": 2.0}}
    assert out["change_less_base"] == {"p/rss_kib": {"median": 0, "min": -5, "max": 1}}


def test_the_first_tree_alternates_between_passes():
    order = ab.schedule(4, ("a", "b"))
    assert sorted(order) == sorted((i, part, tree) for i in range(4) for part in "ab" for tree in ab.TREES)
    for i in range(4):
        trees = [tree for k, _, tree in order if k == i]
        first = ab.TREES[i % 2]
        # each part in both trees back to back, the same tree first throughout a pass
        assert trees == [first, ab.TREES[1 - i % 2]] * 2


def test_both_trees_are_measured_through_paths_of_equal_length(monkeypatch, tmp_path):
    base = tmp_path / "a_much_longer_base_checkout"
    base.mkdir()
    seen = []

    def measure(group, part, root):
        seen.append((part, root, os.path.realpath(root)))
        return {"x_s": 1.0}

    monkeypatch.setattr(ab, "_measure", measure)
    report = ab.compare("step", str(base))
    assert len(seen) == 2 * 2 * ab.PASSES
    assert len({len(root) for _, root, _ in seen}) == 1
    # the symlinks reach the two trees, and are gone with the report
    assert {real for _, _, real in seen} == {os.path.realpath(base), os.path.realpath(ab.ROOT)}
    assert not any(os.path.lexists(root) for _, root, _ in seen)
    assert report["speedup"]["power/x_s"]["median"] == 1.0


def test_help_lists_the_six_groups(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ab.py", "--help"])
    with pytest.raises(SystemExit) as stop:
        ab.main()
    assert stop.value.code == 0
    text = capsys.readouterr().out
    for group in ("exact", "pair_kernels", "particles", "simplex", "step", "trajectory"):
        assert group in text
    assert set(ab.GROUPS) == {"exact", "pair_kernels", "particles", "simplex", "step", "trajectory"}
    # a part of ``step`` reads its own ru_maxrss, so the harness that spawns
    # it must not have loaded numpy: the groups import it where they run
    loaded = {v.__name__.split(".")[0] for v in vars(ab).values() if isinstance(v, types.ModuleType)}
    assert not loaded & {"numpy", "perfbench", "wgflow"}
