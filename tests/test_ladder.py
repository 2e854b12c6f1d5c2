"""The ladder benchmark keeps its result keys, and merges runs by medians."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LADDER = ROOT / "tools" / "ladder.py"

STAGE_KEYS = {"intersect", "kernel_lattice", "lazy_faces", "lazy_fills", "s",
              "simplicial_builds", "sweeps", "swept_builds"}
REFINE_KEYS = {"solve_rational", "hermite_normal_form", "proj_system_of_fans",
               "proj_builds", "eval", "pow", "mul", "character", "decompose",
               "s", "warm_s", "warm_proj_builds", "warm_character",
               "warm_decompose"}


@pytest.mark.parametrize("argv, keys", [
    (["P4"], {"classes", "issues", "order_pairs", "order_pairs_s",
              "separated", "stages", "support_is_full", "total_s"}),
    (["N=5", "--hilbert"], {"s", "generators", "relations_s"}),
    (["scale=1", "--scalars"], {"s", "faces", "value_coeffs",
                                "kernel_lattice", "kernel_lattice_repeat"}),
    (["P2", "--refine"], REFINE_KEYS),
    (["omega", "--startup"], {"ms", "modules", "source_lines"}),
], ids=["proj", "hilbert", "scalars", "refine", "startup"])
def test_each_mode_keeps_its_result_keys(tmp_path, argv, keys):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = tmp_path / "ladder.json"
    child = subprocess.run(
        [sys.executable, str(LADDER), "--out", str(out), "--rung"] + argv,
        env=env, check=True, capture_output=True, text=True, timeout=120)
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == keys
    if "stages" in result:
        assert list(result["stages"]) == ["proj", "omega", "validate",
                                          "separated", "support"]
        assert all(set(stage) == STAGE_KEYS
                   for stage in result["stages"].values())
    assert not out.exists()


def test_runs_merge_by_medians_of_numbers_only():
    spec = importlib.util.spec_from_file_location("ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    runs = [{"s": s, "n": 3, "ok": ok, "names": [k], "stages": {"a": {"s": s}}}
            for k, (s, ok) in enumerate([(0.3, True), (0.1, False),
                                         (0.2, False)])]
    assert ladder._merge(runs) == {"s": 0.2, "n": 3, "ok": True,
                                   "names": [0], "stages": {"a": {"s": 0.2}}}
