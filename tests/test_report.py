"""The shared `key = value` report writer and the fit report round trip."""

import math

import numpy as np

import tdmpc as T
import tdmpc.cli as cli
from tdmpc.report import field_pairs, kv_lines


def test_kv_lines_table():
    table = [
        ("c", None, "c = none"),
        ("M_bar", None, "M_bar = pending probe"),
        ("passed", True, "passed = 1"),
        ("passed", np.bool_(False), "passed = 0"),
        ("N", 5, "N = 5"),
        ("N", np.int64(5), "N = 5"),
        ("eta", 1.0 / 3.0, f"eta = {1.0 / 3.0!r}"),
        ("eta", np.float64(0.1), "eta = 0.1"),
        ("c0", 2.0, "c0 = 2.0"),
        ("tau", math.inf, "tau = inf"),
    ]
    assert kv_lines((key, val) for key, val, _ in table) == [line for *_, line in table]


def test_ediss_fit_round_trips_through_its_report(tmp_path, pend_fit):
    fits = [pend_fit, T.EdissFit(1.0 / 3.0, 2.5e-7, 0.9999, 1e-3, 20, 30, math.inf)]
    for i, fit in enumerate(fits):
        path = tmp_path / f"fit{i}.txt"
        path.write_text("\n".join(fit.to_lines()) + "\n")
        loaded = cli.load_ediss_fit(str(path))[0]
        assert field_pairs(loaded) == field_pairs(fit)
        assert [type(v) for _, v in field_pairs(loaded)] == [float] * 4 + [int] * 2 + [float]
